"""Symbolic bosonic operator algebra on spatially labelled creation/annihilation
operators.

Terms are formal integrals of operator monomials against scalar coefficient
kernels.  The two core manipulations are normal ordering by Wick contraction
and the leading-order (Ito) product of differentials living on an
infinitesimal region of space.  Multiplication tables for families of noise
differentials are derived from the commutators alone; no table entry is ever
hard coded.

Every value here is immutable; all operations are pure functions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "AlgebraError",
    "ContractionOverflow",
    "FULL",
    "INF",
    "FieldOp",
    "CoeffKernel",
    "OperatorTerm",
    "OperatorExpr",
    "NoiseFamily",
    "TableEntry",
    "ItoTable",
    "declare_kernel",
    "kernel_props",
    "a",
    "adag",
    "term",
    "expr",
    "normal_order",
    "ito_product",
    "derive_table",
    "doi_shift",
    "MAX_OPS",
    "make_family",
]


class AlgebraError(Exception):
    """Base class for algebra failures."""


class ContractionOverflow(AlgebraError):
    """A term exceeds the configured operator-count cap."""


FULL = "full"
INF = "inf"

# Cap on the operators in one term that normal ordering will expand.
MAX_OPS = 16

# Cap on brute-force canonical relabelling (7! orders above it); derive_table
# needs at most 4 bound variables.
_MAX_PERM_VARS = 6


# ---------------------------------------------------------------------------
# Kernel symbol registry
# ---------------------------------------------------------------------------

# name -> {"symmetric": bool, "derivative": bool}
_KERNELS: dict[str, dict] = {}


def declare_kernel(name: str, *, symmetric: bool = False, derivative: bool = False) -> None:
    """Register properties of a scalar kernel symbol.

    symmetric:  invariant under permutation of its arguments (e.g. R(p-q)).
    derivative: a differential operator whose integral over a closed box
                vanishes (e.g. the Laplacian); used to drop boundary terms.
    """
    _KERNELS[name] = {"symmetric": symmetric, "derivative": derivative}


def kernel_props(name: str) -> dict:
    return _KERNELS.get(name, {"symmetric": False, "derivative": False})


declare_kernel("delta", symmetric=True)


# ---------------------------------------------------------------------------
# Core data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldOp:
    """A single creation (dagger) or annihilation operator at a position var."""

    dagger: bool
    species: int
    var: str

    def rename(self, subs: Mapping[str, str]) -> "FieldOp":
        return FieldOp(self.dagger, self.species, subs.get(self.var, self.var))

    def __str__(self) -> str:
        tag = "+" if self.dagger else ""
        sp = "" if self.species == 0 else f"<{self.species}>"
        return f"a{tag}{sp}({self.var})"


def _commutes(x: FieldOp, y: FieldOp) -> bool:
    return x.species != y.species or x.dagger == y.dagger


@dataclass(frozen=True)
class CoeffKernel:
    """Rational prefactor times an ordered product of opaque kernel factors."""

    numeric: Fraction = Fraction(1)
    factors: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def rename(self, subs: Mapping[str, str]) -> "CoeffKernel":
        return CoeffKernel(
            self.numeric,
            tuple((n, tuple(subs.get(v, v) for v in args)) for n, args in self.factors),
        )

    def scaled(self, c: Fraction) -> "CoeffKernel":
        return CoeffKernel(self.numeric * c, self.factors)

    def __mul__(self, other: "CoeffKernel") -> "CoeffKernel":
        return CoeffKernel(self.numeric * other.numeric, self.factors + other.factors)

    def canonical_factors(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Factors with symmetric arguments sorted; commuting factors sorted."""
        out = []
        for name, args in self.factors:
            if kernel_props(name)["symmetric"]:
                args = tuple(sorted(args))
            out.append((name, args))
        # all scalar kernels commute by default; keep a stable sorted order
        return tuple(sorted(out))

    def __str__(self) -> str:
        parts = []
        if self.numeric != 1 or not self.factors:
            parts.append(str(self.numeric))
        for name, args in self.factors:
            parts.append(f"{name}({','.join(args)})" if args else name)
        return "*".join(parts)


@dataclass(frozen=True)
class OperatorTerm:
    """coeff * ops, integrated over the bound variables.

    ``bound`` maps each integration variable to ``(kind, site)`` where kind is
    FULL or INF and site labels the infinitesimal box (so differentials at
    distinct positions never contract).  Variables appearing nowhere in
    ``bound`` are free external labels.
    """

    coeff: CoeffKernel
    ops: tuple[FieldOp, ...]
    bound: tuple[tuple[str, str, str], ...] = ()  # (var, kind, site)

    def __post_init__(self):
        names = [b[0] for b in self.bound]
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate bound variable in {names}")

    @property
    def bound_map(self) -> dict[str, tuple[str, str]]:
        return {v: (k, s) for v, k, s in self.bound}

    def order(self) -> int:
        """Number of infinitesimal bound variables (the power of dp)."""
        return sum(1 for _, kind, _ in self.bound if kind == INF)

    def sites(self) -> set[str]:
        return {s for _, kind, s in self.bound if kind == INF}

    def rename(self, subs: Mapping[str, str]) -> "OperatorTerm":
        return OperatorTerm(
            self.coeff.rename(subs),
            tuple(op.rename(subs) for op in self.ops),
            tuple((subs.get(v, v), k, s) for v, k, s in self.bound),
        )

    def __str__(self) -> str:
        ops = " ".join(str(op) for op in self.ops) or "1"
        meas = " ".join(
            ("d" if k == INF else "D") + v for v, k, _ in self.bound
        )
        body = f"{self.coeff} {ops}"
        return f"int[{meas}] {body}" if meas else body


def _sorted_ops(ops: Sequence[FieldOp]) -> tuple[FieldOp, ...]:
    """Canonically order ops using only commuting adjacent swaps."""
    lst = list(ops)
    key = lambda op: (not op.dagger, op.species, op.var)
    changed = True
    while changed:
        changed = False
        for i in range(len(lst) - 1):
            if _commutes(lst[i], lst[i + 1]) and key(lst[i + 1]) < key(lst[i]):
                lst[i], lst[i + 1] = lst[i + 1], lst[i]
                changed = True
    return tuple(lst)


def _canonical_key(t: OperatorTerm):
    return (
        tuple((op.dagger, op.species, op.var) for op in t.ops),
        t.coeff.canonical_factors(),
        tuple(sorted(t.bound)),
    )


def canonical_term(t: OperatorTerm) -> OperatorTerm:
    """Rename bound variables and reorder commuting structure canonically.

    Structurally identical terms (up to bound-variable labels, commuting
    operator swaps, declared kernel symmetries) map to an identical value, so
    expression merging is a dictionary lookup.
    """
    bvars = [v for v, _, _ in t.bound]
    if len(bvars) > _MAX_PERM_VARS:
        raise AlgebraError(f"term has {len(bvars)} bound variables; canonical "
                           f"relabelling is limited to {_MAX_PERM_VARS}")
    best = None
    for perm in itertools.permutations(range(len(bvars))):
        subs = {bvars[i]: f".{perm[i]}" for i in range(len(bvars))}
        cand = t.rename(subs)
        cand = OperatorTerm(
            CoeffKernel(cand.coeff.numeric, cand.coeff.canonical_factors()),
            _sorted_ops(cand.ops),
            tuple(sorted(cand.bound)),
        )
        k = _canonical_key(cand)
        if best is None or k < best[0]:
            best = (k, cand)
    return best[1]


class OperatorExpr:
    """A formal sum of OperatorTerms; identical terms merge on construction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[OperatorTerm] = ()):
        acc: dict = {}
        for t in terms:
            c = canonical_term(t)
            k = _canonical_key(c)
            if k in acc:
                old = acc[k]
                acc[k] = OperatorTerm(
                    CoeffKernel(old.coeff.numeric + c.coeff.numeric, old.coeff.factors),
                    old.ops,
                    old.bound,
                )
            else:
                acc[k] = c
        self.terms = tuple(
            sorted(
                (t for t in acc.values() if t.coeff.numeric != 0),
                key=_canonical_key,
            )
        )

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + other.scaled(Fraction(-1))

    def scaled(self, c) -> "OperatorExpr":
        c = Fraction(c)
        return OperatorExpr(
            OperatorTerm(t.coeff.scaled(c), t.ops, t.bound) for t in self.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms) or "0"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def a(var: str, species: int = 0) -> FieldOp:
    return FieldOp(False, species, var)


def adag(var: str, species: int = 0) -> FieldOp:
    return FieldOp(True, species, var)


def term(
    ops: Sequence[FieldOp],
    *,
    numeric=1,
    factors: Sequence[tuple[str, Sequence[str]]] = (),
    bound: Sequence[tuple[str, str, str]] = (),
) -> OperatorTerm:
    return OperatorTerm(
        CoeffKernel(Fraction(numeric), tuple((n, tuple(v)) for n, v in factors)),
        tuple(ops),
        tuple(bound),
    )


def expr(*terms: OperatorTerm) -> OperatorExpr:
    return OperatorExpr(terms)


# ---------------------------------------------------------------------------
# Wick normal ordering
# ---------------------------------------------------------------------------


def _contractible_pairs(t: OperatorTerm) -> list[tuple[int, int]]:
    bm = t.bound_map
    pairs = []
    for i, x in enumerate(t.ops):
        if x.dagger:
            continue
        for j in range(i + 1, len(t.ops)):
            y = t.ops[j]
            if not y.dagger or y.species != x.species:
                continue
            kx = bm.get(x.var)
            ky = bm.get(y.var)
            if kx and ky and kx[0] == INF and ky[0] == INF and kx[1] != ky[1]:
                continue  # disjoint infinitesimal boxes: delta vanishes
            pairs.append((i, j))
    return pairs


def _matchings(pairs: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    out: list[list[tuple[int, int]]] = []

    def rec(idx: int, used: set, cur: list):
        out.append(list(cur))
        for k in range(idx, len(pairs)):
            i, j = pairs[k]
            if i in used or j in used:
                continue
            cur.append(pairs[k])
            rec(k + 1, used | {i, j}, cur)
            cur.pop()

    rec(0, set(), [])
    return out


def _apply_matching(
    t: OperatorTerm, matching: list[tuple[int, int]], reorder: bool = True
) -> OperatorTerm:
    subs: dict[str, str] = {}

    def res(v: str) -> str:
        while v in subs:
            v = subs[v]
        return v

    bound = {v: (k, s) for v, k, s in t.bound}
    extra_factors: list[tuple[str, tuple[str, ...]]] = []
    for i, j in matching:
        x = res(t.ops[i].var)
        y = res(t.ops[j].var)
        if x == y:
            raise AlgebraError(f"self-contraction of variable {x}")
        if y in bound:
            subs[y] = x
            ky, sy = bound.pop(y)
            if x in bound:
                kx, sx = bound[x]
                if INF in (kx, ky):
                    bound[x] = (INF, sx if kx == INF else sy)
        elif x in bound:
            subs[x] = y
            bound.pop(x)
        else:
            extra_factors.append(("delta", (x, y)))

    dropped = {i for ij in matching for i in ij}
    kept = [op for i, op in enumerate(t.ops) if i not in dropped]
    if reorder:
        kept = [op for op in kept if op.dagger] + [op for op in kept if not op.dagger]
    new_ops = tuple(FieldOp(op.dagger, op.species, res(op.var)) for op in kept)
    coeff = CoeffKernel(
        t.coeff.numeric,
        tuple((n, tuple(res(v) for v in args)) for n, args in t.coeff.factors)
        + tuple(extra_factors),
    )
    return OperatorTerm(coeff, new_ops, tuple((v, k, s) for v, (k, s) in bound.items()))


def _vanishes_by_parts(t: OperatorTerm) -> bool:
    """A derivative kernel integrated over a closed box with nothing else
    depending on its variable is a pure boundary term."""
    bm = t.bound_map
    for idx, (name, args) in enumerate(t.coeff.factors):
        if not kernel_props(name)["derivative"] or len(args) != 1:
            continue
        v = args[0]
        if v not in bm:
            continue
        other_kernel = any(
            v in a2 for k2, (n2, a2) in enumerate(t.coeff.factors) if k2 != idx
        )
        creator = any(op.dagger and op.var == v for op in t.ops)
        if not other_kernel and not creator:
            return True
    return False


def simplify(e: OperatorExpr) -> OperatorExpr:
    return OperatorExpr(t for t in e.terms if not _vanishes_by_parts(t))


def normal_order(e: OperatorExpr) -> OperatorExpr:
    """Sum of normal-ordered terms over all Wick contraction choices.

    Equals the input under the canonical commutation relations: each
    contraction of an annihilator left of a same-species creator produces a
    delta which is resolved by identifying the two variables.
    """
    out: list[OperatorTerm] = []
    for t in e.terms:
        if len(t.ops) > MAX_OPS:
            raise ContractionOverflow(
                f"term has {len(t.ops)} operators (cap {MAX_OPS})"
            )
        for m in _matchings(_contractible_pairs(t)):
            out.append(_apply_matching(t, m))
    return OperatorExpr(out)


# ---------------------------------------------------------------------------
# Ito products
# ---------------------------------------------------------------------------


def _base_order(e: OperatorExpr) -> int:
    return min(t.order() for t in e.terms)


def ito_product(x: OperatorExpr, y: OperatorExpr) -> OperatorExpr:
    """Leading-order product of two differentials on one infinitesimal box.

    The operands are multiplied exactly as written (the right operand's
    creators are moved left first), every term whose infinitesimal measure
    exceeds the minimum surviving power of dp is discarded, and the product is
    Zero when no contraction reduces the measure at all.

    Differentials on distinct boxes commute and their product is higher
    order, so it is Zero.
    """
    if x.is_zero() or y.is_zero():
        return OperatorExpr()
    sx = set().union(*(t.sites() for t in x.terms))
    sy = set().union(*(t.sites() for t in y.terms))
    if not sx or not sy:
        raise AlgebraError("ito_product operands must be infinitesimal differentials")
    if sx != sy:
        return OperatorExpr()
    base = _base_order(x) + _base_order(y)
    # both operands are canonical, their bound variables named .0, .1, ...;
    # priming the right operand's names keeps them apart from the left's
    yp = [ty.rename({v: v + "'" for v, _, _ in ty.bound}) for ty in y.terms]
    prods = [
        OperatorTerm(tx.coeff * ty.coeff, tx.ops + ty.ops, tx.bound + ty.bound)
        for tx in x.terms for ty in yp
    ]
    no = normal_order(OperatorExpr(prods))
    if no.is_zero():
        return no
    m = min(t.order() for t in no.terms)
    if m >= base:
        return OperatorExpr()
    return OperatorExpr(t for t in no.terms if t.order() == m)


# ---------------------------------------------------------------------------
# Noise families and Ito tables
# ---------------------------------------------------------------------------


# name -> (arity, terms): each term is (numeric, ops), each op is (dagger,
# species, variable index); _Ci and _Ai create and annihilate species 0 on
# variable i.  An instance binds every variable on one infinitesimal box
# and puts each kernel over all of them.  B(m) is the B entry with its
# creator raised to the m-th power.
_C0, _C1, _A0, _A1 = (True, 0, 0), (True, 0, 1), (False, 0, 0), (False, 0, 1)
_FAMILIES = {
    "A": (1, ((1, (_A0,)),)),
    "Adag": (1, ((1, (_C0,)),)),
    "Lambda": (1, ((1, (_C0, _A0)),)),
    "dt": (0, ((1, ()),)),
    "B": (1, ((1, (_C0, _A0)),)),
    "Xi": (1, ((Fraction(1, 2), (_C0, _C1, _A0, _A1)),)),
    "Omega": (1, ((1, (_C0, _A0, _A1)),)),
    "M": (1, ((1, ((True, 1, 0), _A0)),)),
    "X": (1, ((1, (_C0,)), (-1, ()))),
    "Y": (1, ((1, (_A0,)), (-1, (_C0, _A0)))),
}


@dataclass(frozen=True)
class NoiseFamily:
    """A named differential family, as one ``_FAMILIES`` template."""

    name: str
    arity: int
    terms: tuple  # ((numeric, ((dagger, species, variable index), ...)), ...)
    param: int | None = None  # creator multiplicity for the B family

    @property
    def label(self) -> str:
        return self.name if self.param is None else f"{self.name}({self.param})"

    def instance(self, kernels: Sequence[str] = (), site: str = "p") -> OperatorExpr:
        """The template with concrete kernel symbol names on the
        infinitesimal box ``site``."""
        if len(kernels) != self.arity:
            raise AlgebraError(
                f"{self.name} expects {self.arity} kernel(s), got {len(kernels)}"
            )
        n = 1 + max((i for _, ops in self.terms for _, _, i in ops), default=0)
        vs = [f"{site}{i}" for i in range(n)]
        return expr(*(
            term([FieldOp(d, sp, vs[i]) for d, sp, i in ops], numeric=c,
                 factors=[(k, vs) for k in kernels], bound=[(v, INF, site) for v in vs])
            for c, ops in self.terms
        ))


def make_family(name: str, param: int | None = None) -> NoiseFamily:
    """Look up a standard family by name; ``B`` takes the creator power."""
    if name not in _FAMILIES:
        raise AlgebraError(f"unknown noise family {name!r}")
    arity, terms = _FAMILIES[name]
    if name == "B":
        if param is None or param < 1:
            raise AlgebraError("family B requires a positive creator power")
        ((c, (create, *rest)),) = terms
        terms = ((c, (create,) * param + tuple(rest)),)
    return NoiseFamily(name, arity, terms, param)


@dataclass(frozen=True)
class TableEntry:
    kind: str  # "zero" | "scalar_dt" | "family" | "unrecognized"
    fam: NoiseFamily | None = None  # the recognized family
    scale: Fraction = Fraction(1)
    kernels: tuple[str, ...] = ()
    raw: OperatorExpr | None = None

    @property
    def family(self) -> str | None:
        return self.fam.name if self.fam else None

    def render(self) -> str:
        pre = "" if self.scale == 1 else f"{self.scale}*"
        if self.kind == "zero":
            return "0"
        if self.kind == "scalar_dt":
            return f"{pre}<{','.join(self.kernels)}> dt"
        if self.kind == "family":
            return f"{pre}d{self.fam.label}[{''.join(self.kernels)}]"
        return f"?[{self.raw}]"


def _match(result: OperatorExpr, family: NoiseFamily) -> TableEntry | None:
    """``result`` read as scale * family[kernels], or None.

    Both sides are canonical, so the family's placeholder-kernel instance is
    paired with the result term by term: the operators and bound variables
    agree, every result factor lies on the placeholder's arguments, and all
    terms share one scale and one tuple of kernel names.  B(m) has one term
    with m creators, so B is tried only at the power that can match: the
    result's largest creator count.
    """
    if family.name == "B":
        m = max(sum(op.dagger for op in t.ops) for t in result.terms)
        if m < 1:
            return None
        family = make_family("B", m)
    templ = family.instance(["?slot"] * family.arity)
    if len(templ.terms) != len(result.terms):
        return None
    reads = set()
    for tt, rt in zip(templ.terms, result.terms):
        args = {v for _, vs in tt.coeff.factors for v in vs}
        if tt.ops != rt.ops or tt.bound != rt.bound or any(
            set(vs) != args for _, vs in rt.coeff.factors
        ):
            return None
        reads.add((rt.coeff.numeric / tt.coeff.numeric, tuple(n for n, _ in rt.coeff.factors)))
    if len(reads) != 1:
        return None
    ((scale, kernels),) = reads
    return TableEntry("family", family, scale, kernels)


@dataclass(frozen=True)
class ItoTable:
    families: tuple[NoiseFamily, ...]
    entries: tuple[tuple[tuple[str, str], TableEntry], ...]

    def entry(self, row: str, col: str) -> TableEntry:
        for (r, c), e in self.entries:
            if r == row and c == col:
                return e
        raise KeyError((row, col))

    def render_text(self) -> str:
        labels = [f.label for f in self.families]
        cells = {
            (r, c): e.render() for (r, c), e in self.entries
        }
        width = max(
            [len(s) for s in cells.values()] + [len("d" + l) for l in labels]
        )
        head = " | ".join(["".ljust(width)] + [("d" + l).ljust(width) for l in labels])
        lines = [head, "-" * len(head)]
        for r in labels:
            row = [("d" + r).ljust(width)]
            for c in labels:
                row.append(cells[(r, c)].ljust(width))
            lines.append(" | ".join(row))
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        labels = [f.label for f in self.families]
        data = {
            "families": labels,
            "entries": [
                {"row": r, "col": c, "result": e.render()}
                for (r, c), e in self.entries
            ],
        }
        return json.dumps(data, indent=2, sort_keys=True) + "\n"

    def all_recognized(self) -> bool:
        return all(e.kind != "unrecognized" for _, e in self.entries)


def derive_table(families: Sequence[NoiseFamily]) -> ItoTable:
    """Pairwise Ito products of fresh instances, recognized back into family
    instances where possible.  Row kernels are named F, column kernels G.

    A product of one infinitesimal variable, no operators and a kernel
    product is a scalar dt; otherwise the first family given under each name
    is tried, in order, and the first that matches names the product."""
    firsts: dict[str, NoiseFamily] = {}
    for f in families:
        firsts.setdefault(f.name, f)
    entries = []
    for fr in families:
        for fc in families:
            prod = ito_product(fr.instance(["F"] * fr.arity), fc.instance(["G"] * fc.arity))
            t = prod.terms[0] if len(prod.terms) == 1 else None
            if prod.is_zero():
                e = TableEntry("zero")
            elif t and not t.ops and t.order() == 1 and t.coeff.factors:
                e = TableEntry("scalar_dt", scale=t.coeff.numeric,
                               kernels=tuple(n for n, _ in t.coeff.factors))
            else:
                e = next(filter(None, (_match(prod, f) for f in firsts.values())),
                         TableEntry("unrecognized", raw=prod))
            entries.append(((fr.label, fc.label), e))
    return ItoTable(tuple(families), tuple(entries))


# ---------------------------------------------------------------------------
# Doi shift
# ---------------------------------------------------------------------------


def doi_shift(e: OperatorExpr, species: int = 0) -> OperatorExpr:
    """Replace every creator of the species by (creator + 1) and re-expand.

    Equivalent to conjugation by exp(int a_p dp) from the left.  Boundary
    terms from derivative kernels left with no creator partner are dropped.
    """
    out: list[OperatorTerm] = []
    for t in e.terms:
        idxs = [
            i for i, op in enumerate(t.ops) if op.dagger and op.species == species
        ]
        for keep in itertools.product([True, False], repeat=len(idxs)):
            drop = {i for i, k in zip(idxs, keep) if not k}
            out.append(
                OperatorTerm(
                    t.coeff,
                    tuple(op for i, op in enumerate(t.ops) if i not in drop),
                    t.bound,
                )
            )
    return simplify(OperatorExpr(out))

