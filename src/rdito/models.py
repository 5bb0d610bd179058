"""Closed-form generating functionals and densities for local reaction models.

All models live on a periodic box; functions of the spatial operator
H = mu - D Lap act spectrally (multiplication by mu + D|k|^2 in momentum
space).  Generating functionals are reported as normalized logarithms, so
every model returns exactly 0 at u == 1 (probability conservation).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .grid import FieldGrid, point_labels, reprs, table_block
from .grid import half_fft, half_ifft, half_spectrum, heat_change


class ModelError(Exception):
    pass


class Unsupported(ModelError):
    """The model cannot answer: no such closed form, or its assumptions fail."""


class NonconstantRate(Unsupported):
    pass


class SeriesDivergence(ModelError):
    """The solution blows up: the GF of a branching model diverges."""


# ---------------------------------------------------------------------------
# Rates and model specifications
# ---------------------------------------------------------------------------

class TimeProfile(NamedTuple):
    """A named time profile h(t) and its exact integral over [t0, t1]; both
    take numpy arrays as well as floats."""

    h: Callable
    integral: Callable


# The integrals are written in t1 - t0, not as F(t1) - F(t0), so that short
# intervals do not cancel: sin^2 integrates to (d - cos(t0 + t1) sin d) / 2.
_TIME_EXPRS: dict[str, TimeProfile] = {
    "one": TimeProfile(lambda t: 1.0, lambda t0, t1: t1 - t0),
    "sin2": TimeProfile(lambda t: np.sin(t) ** 2,
                        lambda t0, t1: ((t1 - t0) - np.cos(t0 + t1) * np.sin(t1 - t0)) / 2),
    "cos2": TimeProfile(lambda t: np.cos(t) ** 2,
                        lambda t0, t1: ((t1 - t0) + np.cos(t0 + t1) * np.sin(t1 - t0)) / 2),
}


def _finite_nonneg(values) -> bool:
    arr = np.asarray(values, float)
    return bool(np.all(np.isfinite(arr)) and np.all(arr >= 0))


@dataclass(frozen=True)
class Rate:
    """Separable rate c * g(p) * h(t); any factor may be absent (=1)."""

    const: float = 1.0
    table: tuple | None = None  # spatial samples, grid-shaped
    time: str | None = None  # named builtin time profile

    def __post_init__(self):
        if not _finite_nonneg(self.const):
            raise ModelError(f"rate constant must be finite and >= 0, got {self.const}")
        if self.time is not None and self.time not in _TIME_EXPRS:
            raise ModelError(f"unknown time expression {self.time!r}")
        if self.table is not None and not _finite_nonneg(self.table):
            raise ModelError("rate samples must be finite and >= 0")

    @property
    def is_const(self) -> bool:
        return self.table is None and self.time is None

    def spatial(self, shape=None) -> np.ndarray:
        if self.table is None:
            return np.full(shape if shape is not None else (), self.const)
        return self.const * np.asarray(self.table, float)

    def temporal(self, t):
        return _TIME_EXPRS[self.time].h(t) if self.time else 1.0

    def temporal_integral(self, t0, t1):
        """Exact integral of the time profile over [t0, t1]."""
        return _TIME_EXPRS[self.time].integral(t0, t1) if self.time else t1 - t0

    @classmethod
    def from_json(cls, obj) -> "Rate":
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            return cls(const=as_number(obj, "a rate"))
        if not isinstance(obj, dict):
            raise ModelError(f"a rate must be a number or an object, got {obj!r}")
        check_keys(obj, ("const", "table", "expr"), "a rate")
        kwargs = {}
        if "const" in obj:
            kwargs["const"] = as_number(obj["const"], "rate const")
        if "table" in obj:
            kwargs["table"] = _freeze(obj["table"], "rate table entry")
        if "expr" in obj:
            kwargs["time"] = obj["expr"]
        return cls(**kwargs)


def as_number(value, what: str) -> float:
    """A JSON number as a float; ValueError otherwise (float() would read
    true as 1.0 and "2" as 2.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def as_int(value, what: str) -> int:
    """A JSON number that is a whole number, as an int; ValueError otherwise
    (int() would truncate 2.5 to 2)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_keys(obj, allowed, what: str) -> None:
    """ValueError unless `obj` is a JSON object whose keys are all in
    `allowed`: a misspelt key would otherwise read as an absent one."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {json.dumps(obj)}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {what}, which takes {sorted(allowed)}")


def _freeze(nested, what: str):
    """Nested JSON lists of numbers as nested tuples of floats."""
    if isinstance(nested, (list, tuple)):
        return tuple(_freeze(x, what) for x in nested)
    return as_number(nested, what)


def image_sum(dx, L: float, two_var: float):
    """Sum over periodic images j of exp(-(dx + j L)^2 / two_var), elementwise.

    Pairs j, -j are added until a pair adds under 1e-14 of the largest sum; the
    1e-300 floor ends it when every image underflows.  Past two_var = 1e6 L^2
    (thousands of pairs) it returns sqrt(pi two_var) / L, exact to an ulp by
    Poisson summation: the next term is 2 exp(-pi^2 two_var / L^2) of it.
    """
    if two_var > 1e6 * L * L:
        return np.full(np.shape(dx), math.sqrt(math.pi * two_var) / L)
    s = np.exp(-(dx ** 2) / two_var)
    j = 1
    while True:
        add = np.exp(-((dx + j * L) ** 2) / two_var) + np.exp(-((dx - j * L) ** 2) / two_var)
        s = s + add
        if np.max(add) < 1e-14 * max(np.max(s), 1e-300):
            return s
        j += 1


def wrapped_gaussian(grid: FieldGrid, mass: float, width: float, center) -> np.ndarray:
    """Periodic (image-summed) Gaussian bump with integral `mass`."""
    center = np.atleast_1d(center)
    out = np.ones(grid.shape)
    for ax, (x, L, c) in enumerate(zip(grid.axes(), grid.box, center)):
        prof = image_sum(x - c, L, 2 * width ** 2) / (math.sqrt(2 * math.pi) * width)
        sh = [1] * grid.dim
        sh[ax] = len(x)
        out = out * prof.reshape(sh)
    return mass * out


# The keys of each form of field spec, by its "expr" ("table" when it has one).
_FIELD_KEYS = {"table": ("table",), "uniform": ("expr", "const"),
               "gaussian": ("expr", "mass", "width", "center")}


def _field_from_json(obj, box, shape) -> FieldGrid:
    g = FieldGrid(box, np.zeros(tuple(shape)))
    if not isinstance(obj, dict):
        return g.with_values(np.full(g.shape, as_number(obj, "a field spec other than an object")))
    form = "table" if "table" in obj else obj.get("expr")
    if form in _FIELD_KEYS:
        check_keys(obj, _FIELD_KEYS[form], f"a {form} field")
    if "table" in obj:
        vals = np.asarray(_freeze(obj["table"], "field table entry"), float)
        if vals.shape != g.shape:
            raise ModelError(f"field table shape {vals.shape} != grid {g.shape}")
        return g.with_values(vals)
    if obj.get("expr") == "uniform":
        return g.with_values(np.full(g.shape, as_number(obj.get("const", 1.0), "uniform const")))
    if obj.get("expr") == "gaussian":
        mass = as_number(obj.get("mass", 1.0), "gaussian mass")
        width = as_number(obj.get("width", 1.0), "gaussian width")
        for name, val in (("mass", mass), ("width", width)):
            if not (math.isfinite(val) and val > 0):
                raise ModelError(f"gaussian {name} must be finite and > 0, got {val}")
        center = np.atleast_1d(np.asarray(
            _freeze(obj.get("center", [b / 2 for b in g.box]), "gaussian center"), float))
        if center.shape != (g.dim,) or not np.all(np.isfinite(center)):
            raise ModelError(
                f"gaussian center must be {g.dim} finite numbers, got {obj.get('center')!r}"
            )
        return g.with_values(wrapped_gaussian(g, mass, width, center))
    raise ModelError(f"cannot interpret field spec {obj!r}")


@dataclass(frozen=True)
class ModelSpec:
    """A reaction-diffusion model instance on a periodic box."""

    kind: str
    box: tuple[float, ...]
    D: float
    rates: dict
    v: FieldGrid | float
    vb: FieldGrid | None = None  # second-species initial field (ConvertAB)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        if not (math.isfinite(self.D) and self.D >= 0):
            raise ModelError(f"D must be finite and >= 0, got {self.D}")
        if self.vb is not None and not KINDS[self.kind].converts:
            kinds = ", ".join(k for k, c in KINDS.items() if c.converts)
            raise ModelError(f"initial intensity vb is for {kinds} only, not {self.kind}")
        for name, f in (("v", self.v), ("vb", self.vb)):
            if f is not None and not _finite_nonneg(getattr(f, "values", f)):
                raise ModelError(f"initial intensity {name} must be finite and >= 0")
        shape = self.v.shape if isinstance(self.v, FieldGrid) else None
        for name, r in self.rates.items():
            if r.table is None:
                continue
            if shape is None:
                raise ModelError(f"rate {name!r} has a table, but a {self.kind} model has no grid")
            if np.shape(r.table) != shape:
                raise ModelError(
                    f"rate {name!r} table shape {np.shape(r.table)} != grid {shape}")

    @property
    def d(self) -> int:
        return len(self.box)

    def rate(self, name: str) -> Rate:
        r = self.rates.get(name)
        if r is None:
            raise Unsupported(f"model {self.kind} needs rate {name!r}")
        return r

    def grid(self) -> FieldGrid:
        if not isinstance(self.v, FieldGrid):
            raise ModelError("scalar-v model has no spatial grid")
        return self.v

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        obj = json.loads(text)
        check_keys(obj, ("kind", "d", "box", "shape", "D", "rates", "v", "vb"), "a model file")
        kind = obj["kind"]
        rates = obj.get("rates", {})
        if not isinstance(rates, dict):
            raise ModelError(f"rates must be an object of named rates, got {json.dumps(rates)}")
        rates = {k: Rate.from_json(rv) for k, rv in rates.items()}
        if kind == "DiscreteDeath":
            check_keys(obj, ("kind", "rates", "v"), "a DiscreteDeath model file")
            spec = cls(kind=kind, box=(), D=0.0, rates=rates, v=as_number(obj["v"], "v"))
        else:
            box = tuple(as_number(b, "box entry") for b in obj["box"])
            if not box or not all(math.isfinite(b) and b > 0 for b in box):
                raise ModelError(f"box must hold lengths finite and > 0, got {obj['box']!r}")
            shape = tuple(as_int(n, "shape entry") for n in obj["shape"])
            if min(shape, default=1) < 1:
                raise ModelError(f"shape entries must be >= 1, got {obj['shape']!r}")
            if len(box) != as_int(obj.get("d", len(box)), "d"):
                raise ModelError("d does not match box length")
            vb = _field_from_json(obj["vb"], box, shape) if "vb" in obj else None
            spec = cls(kind=kind, box=box, D=as_number(obj.get("D", 0.0), "D"), rates=rates,
                       v=_field_from_json(obj["v"], box, shape), vb=vb)
        names = [name for name, _ in KINDS[kind].reactions]
        optional = KINDS[kind].optional
        if not set(names) - set(optional) <= set(rates) <= set(names):
            raise ModelError(f"model {kind} takes rates {names} ({list(optional) or 'none'} "
                             f"optional), got {sorted(rates)}")
        return spec


# ---------------------------------------------------------------------------
# Heat semigroup
# ---------------------------------------------------------------------------


def diffuse(grid: FieldGrid, D: float, t: float) -> FieldGrid:
    """Heat semigroup e^{t D Lap} applied spectrally (exact on the grid)."""
    heat = np.exp(-D * t * half_spectrum(grid.ksquared()))
    return grid.with_values(half_ifft(heat * half_fft(grid.values), grid.shape))


# ---------------------------------------------------------------------------
# Death-diffusion (A -> phi with diffusion)
# ---------------------------------------------------------------------------


def _const_rate(spec: ModelSpec, name: str) -> float:
    r = spec.rate(name)
    if not r.is_const:
        raise NonconstantRate(f"{spec.kind} closed form needs constant {name}")
    return r.const


def _static_grid(spec: ModelSpec) -> FieldGrid:
    """The grid of a model whose closed form leaves diffusion out."""
    if spec.D != 0:
        raise Unsupported(f"{spec.kind} closed form holds at D = 0 only, got D = {spec.D}")
    return spec.grid()


def death_diffusion_density(spec: ModelSpec, t: float) -> FieldGrid:
    """X(.;t) = e^{-mu t} (Phi(.;t) * v), evaluated spectrally."""
    mu = _const_rate(spec, "mu")
    g = spec.grid()
    out = diffuse(g, spec.D, t) if t > 0 else g
    return out.with_values(math.exp(-mu * t) * out.values)


def death_diffusion_log_gf(spec: ModelSpec, u: FieldGrid, t: float) -> float:
    """log GF = e^{-mu t} [ integral u (Phi*v) - integral v ]."""
    mu = _const_rate(spec, "mu")
    g = spec.grid()
    conv = diffuse(g, spec.D, t) if t > 0 else g
    dV = g.cell_volume
    return math.exp(-mu * t) * float(
        np.sum(u.values * conv.values) * dV - np.sum(g.values) * dV
    )


def death_diffusion_fn(spec: ModelSpec, points: Sequence, t: float) -> float:
    """n-point weighted probability density f^(n)(p_1..p_n; t).

    exp(-e^{-mu t} int v) * prod_i e^{-mu t} (Phi(.;t) * v)(p_i); the empty
    tuple gives the void probability.  Each point is taken modulo the box;
    ModelError if one is not finite.  Refused when sqrt(2 D t) < h: the grid
    sum of a Gaussian of width sigma aliases by about exp(-2 pi^2 sigma^2 / h^2).
    """
    mu = _const_rate(spec, "mu")
    g = spec.grid()
    total = g.integral()
    out = math.exp(-math.exp(-mu * t) * total)
    if len(points) == 0:
        return out
    if t > 0 and spec.D > 0 and math.sqrt(2 * spec.D * t) < max(g.spacing):
        raise ModelError(f"heat kernel width sqrt(2 D t) at t = {t} is below the grid "
                         f"spacing {max(g.spacing):.3g}; refine the grid")
    dV = g.cell_volume
    mesh = np.meshgrid(*g.axes(), indexing="ij")
    for p in points:
        p = np.atleast_1d(np.asarray(p, float))
        if not np.all(np.isfinite(p)):
            raise ModelError(f"fn point {p.tolist()} is not finite")
        p = p % np.asarray(g.box)  # image_sum reads 0 for a point boxes away
        if t > 0 and spec.D > 0:
            phi = np.ones(g.shape)
            norm = math.sqrt(4 * math.pi * spec.D * t)
            for ax, L in enumerate(g.box):
                s = image_sum(p[ax] - mesh[ax], L, 4 * spec.D * t)
                if math.isfinite(norm) and np.isfinite(s).all():
                    phi = phi * s / norm
                else:  # 4 pi D t overflowed: the kernel is flat, image_sum / norm -> 1 / L
                    phi = phi / L
            val = float(np.sum(phi * g.values) * dV)
        else:
            # Phi -> delta: read v at the nearest grid point
            idx = tuple(
                int(round(p[ax] / g.spacing[ax])) % g.shape[ax]
                for ax in range(g.dim)
            )
            val = float(g.values[idx])
        out *= math.exp(-mu * t) * val
    return out


# ---------------------------------------------------------------------------
# Brownian tree (A -> A + A with diffusion)
# ---------------------------------------------------------------------------


_MAX_STEPS = 2 ** 18  # most Strang steps of brownian_tree_log_gf: t <= 65.536


def brownian_tree_log_gf(spec: ModelSpec, u: FieldGrid, t: float,
                         steps: int | None = None) -> float:
    """Normalized log GF for A -> A+A with diffusion.

    The GF is Poisson-superposable, log GF = int v (w - 1) dp with w(x,t)
    the single-ancestor expectation of prod u(X_i); w solves

        dw/dt = D Lap w + mu w (w - 1),    w(., 0) = u.

    Strang splitting with exact substeps, spectral diffusion written as
    w + (e^{dt D Lap / 2} - 1) w and the logistic step w e^{-mu dt} / (1 - f),
    f = w (1 - e^{-mu dt}), keeps w == 1, so u == 1 gives 0 to machine
    precision; SeriesDivergence once |f| >= 1.  One
    step is exact where a substep is the identity (D = 0, mu = 0 or t = 0);
    else max(200, 4000 t) steps, ModelError past _MAX_STEPS.
    """
    mu = _const_rate(spec, "mu")
    g = spec.grid()
    if steps is None:
        exact = spec.D == 0 or mu == 0 or t == 0
        steps = 1 if exact else max(200, int(math.ceil(t * 4000)))
    if steps > _MAX_STEPS:
        raise ModelError(f"gf at t = {t} needs {steps} Strang steps, more than the "
                         f"{_MAX_STEPS} (2^18) allowed: t <= 65.536")
    dt = t / steps
    heat_half_change = heat_change(g, spec.D, dt / 2)
    decay = math.exp(-mu * dt)
    w = np.asarray(u.values, float)
    for _ in range(steps):
        w = w + heat_half_change(w)
        factor = w * (1.0 - decay)
        if (np.abs(factor) >= 1).any():
            raise SeriesDivergence("geometric factor |w (1 - e^{-mu dt})| >= 1: "
                                   "u too large for this t")
        w = w * decay / (1.0 - factor)
        w = w + heat_half_change(w)
    return float(np.sum(g.values * (w - 1.0)) * g.cell_volume)


def brownian_tree_density(spec: ModelSpec, t: float) -> FieldGrid:
    """X = e^{mu t} e^{t D Lap} v, since the mean solves dX/dt = (mu + D Lap) X;
    v e^{mu t} at D = 0 or t = 0.  ModelError where e^{mu t} or X overflows."""
    mu = _const_rate(spec, "mu")
    g = spec.grid()
    try:
        growth = math.exp(mu * t)
    except OverflowError:
        growth = math.inf
    out = diffuse(g, spec.D, t) if spec.D > 0 and t > 0 else g
    with np.errstate(over="ignore", invalid="ignore"):
        values = out.values * growth
    if not np.all(np.isfinite(values)):
        raise ModelError(f"density v e^(mu t) overflows at mu t = {mu * t:.6g}")
    return g.with_values(values)


# ---------------------------------------------------------------------------
# A -> B conversion (static, spatially varying rate)
# ---------------------------------------------------------------------------


def convert_ab_densities(spec: ModelSpec, t: float) -> tuple[FieldGrid, FieldGrid]:
    """X_a = v_a e^{-M}; X_b = v_b + v_a (1 - e^{-M}), M(p) = int_0^t mu(p, s) ds."""
    g = _static_grid(spec)
    mu = spec.rate("mu")
    vb = spec.vb.values if spec.vb is not None else np.zeros(g.shape)
    decay = np.exp(-mu.spatial(g.shape) * mu.temporal_integral(0.0, t))
    xa = g.values * decay
    xb = vb + g.values * (1 - decay)
    return g.with_values(xa), g.with_values(xb)


# ---------------------------------------------------------------------------
# Time-dependent birth/death (phi <-> A, static in space)
# ---------------------------------------------------------------------------


def birth_death_timedep_density(spec: ModelSpec, t: float) -> FieldGrid:
    """X = v e^{-N(0,t)} + births(mu, nu, 0, t), N = cum. death; an absent
    rate is 0, so SpontBirth is this with nu absent."""
    g = _static_grid(spec)
    mu = spec.rates.get("mu", Rate(const=0.0))
    nu = spec.rates.get("nu", Rate(const=0.0))
    out = g.values * np.exp(-nu.spatial(g.shape) * nu.temporal_integral(0.0, t))
    return g.with_values(out + births(mu, nu, g.shape, 0.0, t))


def births(mu: Rate, nu: Rate, shape, t0: float, t1: float) -> np.ndarray:
    """Births per unit volume over [t0, t1] that survive death to t1 at each
    grid point, g_mu integral_t0^t1 h_mu(s) e^{-g_nu N(s, t1)} ds for the
    separable rates mu = g_mu(p) h_mu(s), nu = g_nu(p) h_nu(s): exactly
    g_mu integral h_mu where g_nu = 0, else by _births_integral.  A rate
    without a table is one value, broadcast to `shape` at the end."""
    gmu, gnu = mu.spatial(), nu.spatial()
    born = np.full(gnu.shape, mu.temporal_integral(t0, t1))
    dies = (gnu != 0) & (gmu != 0 if gnu.ndim else gmu.any())
    if dies.any():
        born[dies] = _births_integral(mu, nu, gnu[dies], t0, t1)
    return np.full(shape, gmu * born)


_GL_PANELS = 2 ** 16  # most panels of one birth integral
_GL_BLOCK = 1 << 20  # matrix entries evaluated at a time
# nodes made on first use, so importing rdito loads no numpy.polynomial
_gauss_legendre = functools.cache(lambda: np.polynomial.legendre.leggauss(16))


def _births_integral(mu: Rate, nu: Rate, gn: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """integral_t0^t1 h_mu(s) exp(-gn N(s, t1)) ds for each entry of gn.

    Composite 16-node Gauss-Legendre on equal panels at most 1/max(gn)
    wide, and at most 1/2 wide where a rate has a time profile (sin^2 and
    cos^2 vary at frequency 2): a panel then spans at most one decay length
    and one radian, where the rule is exact to rounding.  ModelError past
    _GL_PANELS panels.  Past one panel, each distinct entry is integrated
    once.  On one panel (every Monte Carlo step) each entry is, because
    finding the distinct ones would cost more than the rows it saves.
    """
    need = (t1 - t0) * max(float(gn.max()), 2.0 if mu.time or nu.time else 0.0)
    if not need <= _GL_PANELS:
        raise ModelError(f"birth integral over [{t0}, {t1}] needs {need:.6g} "
                         f"Gauss-Legendre panels, more than the {_GL_PANELS} (2^16) allowed")
    x, w = _gauss_legendre()
    panels = max(1, math.ceil(need))
    width = (t1 - t0) / panels
    s = t0 + np.add.outer(np.arange(panels) * width, (x + 1) * (width / 2)).ravel()
    ws = np.tile(w * (width / 2), panels) * mu.temporal(s)
    cum = nu.temporal_integral(s, t1)
    rates, cells = np.unique(gn, return_inverse=True) if panels > 1 else (gn, slice(None))
    rows = max(1, _GL_BLOCK // len(s))
    return np.concatenate([np.exp(-np.outer(rates[i:i + rows], cum)) @ ws
                           for i in range(0, len(rates), rows)])[cells]


# ---------------------------------------------------------------------------
# Discrete death (non-spatial)
# ---------------------------------------------------------------------------


def discrete_death_log_gf(v: float, mu: float, t: float, u: float) -> float:
    """log G(u;t) = (u-1) v e^{-mu t}: Poisson with decaying mean."""
    return (u - 1.0) * v * math.exp(-mu * t)


def discrete_death_mean(v: float, mu: float, t: float) -> float:
    return v * math.exp(-mu * t)


# ---------------------------------------------------------------------------
# Dispatch + CSV output
# ---------------------------------------------------------------------------


class Kind(NamedTuple):
    """What a model kind can answer: closed forms density(spec, t), log_gf(spec,
    u, t) (the normalized log GF at test function u) and fn(spec, points, t)
    (the n-point density), None where it has none; reactions, (rate name,
    event) pairs in the order simulate.step applies them, each on species A:
    "death" A -> 0, "branching" A -> A + A, "conversion" A -> B, "immigration"
    0 -> A, "pair" A + A -> 0; and the rates a model file may leave out."""

    density: Callable | None
    log_gf: Callable | None
    reactions: tuple
    optional: tuple = ()
    fn: Callable | None = None

    @property
    def converts(self) -> bool:
        return any(event == "conversion" for _, event in self.reactions)

    @property
    def pairs(self) -> bool:
        return any(event == "pair" for _, event in self.reactions)


# Every model kind ModelSpec accepts.  Each entry looks its function up in
# this module when it is called, so a wrapper installed on the module
# attribute (perfbench/spans.py times calls that way) sees every call.  An
# absent BirthDeathTimeDep rate is 0, and SpontBirth is BirthDeathTimeDep
# without nu; the Annihilation Monte Carlo takes its kernel from the
# simulation config, so only `perturb` needs R.
KINDS = {
    "DeathDiffusion": Kind(lambda s, t: death_diffusion_density(s, t),
                           lambda s, u, t: death_diffusion_log_gf(s, u, t),
                           (("mu", "death"),),
                           fn=lambda s, points, t: death_diffusion_fn(s, points, t)),
    "BrownianTree": Kind(lambda s, t: brownian_tree_density(s, t),
                         lambda s, u, t: brownian_tree_log_gf(s, u, t),
                         (("mu", "branching"),)),
    "ConvertAB": Kind(lambda s, t: convert_ab_densities(s, t), None, (("mu", "conversion"),)),
    "SpontBirth": Kind(lambda s, t: birth_death_timedep_density(s, t), None,
                       (("mu", "immigration"),)),
    "BirthDeathTimeDep": Kind(lambda s, t: birth_death_timedep_density(s, t), None,
                              (("nu", "death"), ("mu", "immigration")), ("nu", "mu")),
    "DiscreteDeath": Kind(
        lambda s, t: discrete_death_mean(
            s.v, s.rate("mu").const, s.rate("mu").temporal_integral(0.0, t)),
        lambda s, u, t: discrete_death_log_gf(
            s.v, s.rate("mu").const, s.rate("mu").temporal_integral(0.0, t), u),
        (("mu", "death"),)),
    "Annihilation": Kind(None, None, (("R", "pair"),), ("R",)),
}


def closed_form(spec: ModelSpec, what: str) -> Callable:
    """The kind's closed form `what`: "density", "log_gf" or "fn"; Unsupported if none."""
    evaluate = getattr(KINDS[spec.kind], what)
    if evaluate is None:
        kinds = ", ".join(k for k, c in KINDS.items() if getattr(c, what) is not None)
        raise Unsupported(f"no closed-form {what} for kind {spec.kind}, only for {kinds}")
    return evaluate


def density(spec: ModelSpec, t: float):
    """Model-appropriate density evaluation (grid, or tuple for ConvertAB)."""
    return closed_form(spec, "density")(spec, t)


def density_table(
    spec: ModelSpec, times: Sequence[float], evaluate: Callable, tag: str = ""
) -> str:
    """CSV text: `# model,kind[,tag],t=...` header, then `t,coordinate...,value`.

    evaluate(t) gives what is written at time t: a grid, a tuple of grids on
    the same grid (ConvertAB), or a scalar (DiscreteDeath, coordinate 0).
    """
    tag = f"{tag}," if tag else ""
    coord_names = ",".join(f"x{i}" for i in range(max(spec.d, 1)))
    chunks = [f"# model,{spec.kind},{tag}t={','.join(repr(float(t)) for t in times)}\n",
              f"t,{coord_names},value\n"]
    block = None
    for t in times:
        lead = repr(float(t))
        res = evaluate(t)
        for fg in res if isinstance(res, tuple) else (res,):
            if not isinstance(fg, FieldGrid):
                chunks.append(f"{lead},0,{float(fg)!r}\n")
                continue
            if block is None:
                block = table_block(point_labels(fg.axes()))
            chunks.append(block(lead, reprs(fg.values)))
    return "".join(chunks)


def density_csv(spec: ModelSpec, times: Sequence[float]) -> str:
    """Closed-form densities at `times` as a density_table."""
    return density_table(spec, times, lambda t: density(spec, t))
