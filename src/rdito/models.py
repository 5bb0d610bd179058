"""Closed-form generating functionals and densities for local reaction models.

All models live on a periodic box; functions of the spatial operator
H = mu - D Lap act spectrally (multiplication by mu + D|k|^2 in momentum
space).  Generating functionals are reported as normalized logarithms, so
every model returns exactly 0 at u == 1 (probability conservation).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import FieldGrid, MOMENTUM, POSITION, point_labels, table_rows


class ModelError(Exception):
    pass


class DegenerateTime(ModelError):
    pass


class NonconstantRate(ModelError):
    pass


class SeriesDivergence(ModelError):
    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


# ---------------------------------------------------------------------------
# Rates and model specifications
# ---------------------------------------------------------------------------

_TIME_EXPRS: dict[str, Callable[[float], float]] = {
    "one": lambda t: 1.0,
    "sin2": lambda t: math.sin(t) ** 2,
    "cos2": lambda t: math.cos(t) ** 2,
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

    def temporal(self, t: float) -> float:
        return _TIME_EXPRS[self.time](t) if self.time else 1.0

    def temporal_integral(self, t0: float, t1: float) -> float:
        """Integral of the time profile over [t0, t1] (adaptive quadrature)."""
        if self.time is None:
            return t1 - t0
        from scipy import integrate

        val, _ = integrate.quad(
            _TIME_EXPRS[self.time], t0, t1, epsabs=1e-10, epsrel=1e-10
        )
        return val

    @classmethod
    def from_json(cls, obj) -> "Rate":
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            return cls(const=float(obj))
        if not isinstance(obj, dict):
            raise ModelError(f"a rate must be a number or an object, got {obj!r}")
        kwargs = {}
        if "const" in obj:
            kwargs["const"] = float(obj["const"])
        if "table" in obj:
            kwargs["table"] = _freeze(obj["table"])
        if "expr" in obj:
            kwargs["time"] = obj["expr"]
        return cls(**kwargs)


def as_int(value, what: str) -> int:
    """A JSON number that is a whole number, as an int; ValueError otherwise
    (int() would truncate 2.5 to 2)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _freeze(nested):
    if isinstance(nested, (list, tuple)):
        return tuple(_freeze(x) for x in nested)
    return float(nested)


KINDS = (
    "DeathDiffusion",
    "BrownianTree",
    "ConvertAB",
    "SpontBirth",
    "BirthDeathTimeDep",
    "DiscreteDeath",
    "Annihilation",
)


def wrapped_gaussian(grid: FieldGrid, mass: float, width: float, center) -> np.ndarray:
    """Periodic (image-summed) Gaussian bump with integral `mass`."""
    center = np.atleast_1d(center)
    out = np.ones(grid.shape)
    for ax, (x, L, c) in enumerate(zip(grid.axes(), grid.box, center)):
        prof = np.zeros_like(x)
        j = 0
        while True:
            add = np.exp(-((x - c + j * L) ** 2) / (2 * width ** 2))
            if j > 0:
                add = add + np.exp(-((x - c - j * L) ** 2) / (2 * width ** 2))
            prof += add
            if j > 0 and np.max(add) < 1e-14 * max(np.max(prof), 1e-300):
                break
            j += 1
        prof /= math.sqrt(2 * math.pi) * width
        sh = [1] * grid.dim
        sh[ax] = len(x)
        out = out * prof.reshape(sh)
    return mass * out


def _field_from_json(obj, box, shape) -> FieldGrid:
    g = FieldGrid(box, np.zeros(tuple(shape)), POSITION)
    if isinstance(obj, (int, float)):
        return g.with_values(np.full(g.shape, float(obj)))
    if not isinstance(obj, dict):
        raise ModelError(f"cannot interpret field spec {obj!r}")
    if "table" in obj:
        vals = np.asarray(obj["table"], float)
        if vals.shape != g.shape:
            raise ModelError(f"field table shape {vals.shape} != grid {g.shape}")
        return g.with_values(vals)
    if obj.get("expr") == "uniform":
        return g.with_values(np.full(g.shape, float(obj.get("const", 1.0))))
    if obj.get("expr") == "gaussian":
        mass = float(obj.get("mass", 1.0))
        width = float(obj.get("width", 1.0))
        for name, val in (("mass", mass), ("width", width)):
            if not (math.isfinite(val) and val > 0):
                raise ModelError(f"gaussian {name} must be finite and > 0, got {val}")
        center = np.atleast_1d(np.asarray(obj.get("center", [b / 2 for b in g.box]), float))
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
        if self.D < 0:
            raise ModelError("D must be >= 0")
        for name, f in (("v", self.v), ("vb", self.vb)):
            if f is not None and not _finite_nonneg(getattr(f, "values", f)):
                raise ModelError(f"initial intensity {name} must be finite and >= 0")

    @property
    def d(self) -> int:
        return len(self.box)

    def rate(self, name: str) -> Rate:
        r = self.rates.get(name)
        if r is None:
            raise ModelError(f"model {self.kind} needs rate {name!r}")
        return r

    def grid(self) -> FieldGrid:
        if not isinstance(self.v, FieldGrid):
            raise ModelError("scalar-v model has no spatial grid")
        return self.v

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        obj = json.loads(text)
        kind = obj["kind"]
        if kind == "DiscreteDeath":
            return cls(
                kind=kind,
                box=(),
                D=0.0,
                rates={k: Rate.from_json(v) for k, v in obj.get("rates", {}).items()},
                v=float(obj["v"]),
            )
        box = tuple(float(b) for b in obj["box"])
        if not all(math.isfinite(b) and b > 0 for b in box):
            raise ModelError(f"box lengths must be finite and > 0, got {obj['box']!r}")
        shape = tuple(as_int(n, "shape entry") for n in obj["shape"])
        if min(shape, default=1) < 1:
            raise ModelError(f"shape entries must be >= 1, got {obj['shape']!r}")
        if len(box) != int(obj.get("d", len(box))):
            raise ModelError("d does not match box length")
        v = _field_from_json(obj["v"], box, shape)
        vb = None
        if "vb" in obj:
            vb = _field_from_json(obj["vb"], box, shape)
        return cls(
            kind=kind,
            box=box,
            D=float(obj.get("D", 0.0)),
            rates={k: Rate.from_json(rv) for k, rv in obj.get("rates", {}).items()},
            v=v,
            vb=vb,
        )


@dataclass(frozen=True)
class GFQuery:
    """Test function and time for a generating-functional evaluation."""

    u: FieldGrid
    t: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.u.values)):
            raise ModelError("test function u must be finite")
        if self.t < 0:
            raise ModelError("t must be >= 0")


# ---------------------------------------------------------------------------
# Heat kernel
# ---------------------------------------------------------------------------


def heat_kernel(d: int, D: float, x, t: float, box=None) -> float:
    """Point-source heat kernel; image-wrapped when a periodic box is given.

    Phi(x;t) = (4 pi D t)^(-d/2) exp(-|x|^2 / 4Dt), separable per axis.
    """
    if t <= 0:
        raise DegenerateTime("heat kernel needs t > 0")
    if D <= 0:
        raise DegenerateTime("heat kernel needs D > 0")
    x = np.atleast_1d(np.asarray(x, float))
    if len(x) != d:
        raise ModelError(f"displacement has {len(x)} components, d={d}")
    out = 1.0
    for ax in range(d):
        s = math.exp(-x[ax] ** 2 / (4 * D * t))
        if box is not None:
            L = box[ax]
            j = 1
            while True:
                add = math.exp(-((x[ax] + j * L) ** 2) / (4 * D * t)) + math.exp(
                    -((x[ax] - j * L) ** 2) / (4 * D * t)
                )
                s += add
                if add < 1e-14 * s:
                    break
                j += 1
        out *= s / math.sqrt(4 * math.pi * D * t)
    return out


def diffuse(grid: FieldGrid, D: float, t: float) -> FieldGrid:
    """Heat semigroup e^{t D Lap} applied spectrally (exact on the grid)."""
    gh = grid.to_momentum()
    vals = gh.values * np.exp(-D * t * gh.ksquared())
    return FieldGrid(grid.box, vals, MOMENTUM).to_position()


# ---------------------------------------------------------------------------
# Death-diffusion (A -> phi with diffusion)
# ---------------------------------------------------------------------------


def _const_rate(spec: ModelSpec, name: str) -> float:
    r = spec.rate(name)
    if not r.is_const:
        raise NonconstantRate(f"{spec.kind} closed form needs constant {name}")
    return r.const


def death_diffusion_density(spec: ModelSpec, t: float) -> FieldGrid:
    """X(.;t) = e^{-mu t} (Phi(.;t) * v), evaluated spectrally."""
    mu = _const_rate(spec, "mu")
    g = spec.grid()
    out = diffuse(g, spec.D, t) if t > 0 else g
    return out.with_values(math.exp(-mu * t) * out.values)


def death_diffusion_log_gf(spec: ModelSpec, q: GFQuery) -> float:
    """log GF = e^{-mu t} [ integral u (Phi*v) - integral v ]."""
    mu = _const_rate(spec, "mu")
    g = spec.grid()
    conv = diffuse(g, spec.D, q.t) if q.t > 0 else g
    dV = g.cell_volume
    return math.exp(-mu * q.t) * float(
        np.sum(q.u.values * conv.values) * dV - np.sum(g.values) * dV
    )


def death_diffusion_fn(spec: ModelSpec, points: Sequence, t: float) -> float:
    """n-point weighted probability density f^(n)(p_1..p_n; t).

    exp(-e^{-mu t} int v) * prod_i e^{-mu t} (Phi(.;t) * v)(p_i); the empty
    tuple gives the void probability.
    """
    mu = _const_rate(spec, "mu")
    g = spec.grid()
    total = g.integral()
    out = math.exp(-math.exp(-mu * t) * total)
    if len(points) == 0:
        return out
    dV = g.cell_volume
    mesh = np.meshgrid(*g.axes(), indexing="ij")
    for p in points:
        p = np.atleast_1d(np.asarray(p, float))
        if t > 0 and spec.D > 0:
            phi = np.ones(g.shape)
            for ax in range(g.dim):
                xs = mesh[ax]
                dx = p[ax] - xs
                L = g.box[ax]
                s = np.exp(-(dx ** 2) / (4 * spec.D * t))
                j = 1
                while True:
                    add = np.exp(-((dx + j * L) ** 2) / (4 * spec.D * t)) + np.exp(
                        -((dx - j * L) ** 2) / (4 * spec.D * t)
                    )
                    s = s + add
                    if np.max(add) < 1e-14 * np.max(s):
                        break
                    j += 1
                phi = phi * s / math.sqrt(4 * math.pi * spec.D * t)
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


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind via the triangular recurrence."""
    if n < 0 or k < 0:
        raise ModelError("stirling2 needs n, k >= 0")
    if k > n:
        return 0
    row = [1] + [0] * k  # S(0, .)
    for m in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(m, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def _e1_symbol(h: np.ndarray, t: float) -> np.ndarray:
    """e1(H, t) = H^{-1}(e^{-tH} - 1) on the spectral symbol; -t at H=0."""
    out = np.empty_like(h, dtype=float)
    small = np.abs(h) < 1e-12
    hs = np.where(small, 1.0, h)
    out = (np.exp(-t * hs) - 1.0) / hs
    return np.where(small, -t, out)


def brownian_tree_log_gf(spec: ModelSpec, q: GFQuery, steps: int | None = None) -> float:
    """Normalized log GF for A -> A+A with diffusion.

    The GF is Poisson-superposable, log GF = int v (w - 1) dp with w(x,t)
    the single-ancestor expectation of prod u(X_i); w solves

        dw/dt = D Lap w + mu w (w - 1),    w(., 0) = u.

    At D = 0 this resums to the geometric series
    u e^{-mu t} sum_k (u (1 - e^{-mu t}))^k exactly; for D > 0 the equation
    is integrated by Strang splitting with exact substeps (spectral
    diffusion; closed-form logistic reaction), which preserves w == 1
    identically, so u == 1 gives 0 to machine precision.
    """
    mu = _const_rate(spec, "mu")
    g = spec.grid()
    dV = g.cell_volume
    if spec.D == 0 or mu == 0 or q.t == 0:
        w = q.u.values * (1 - math.exp(-mu * q.t))
        if np.any(np.abs(w) >= 1):
            raise SeriesDivergence("geometric factor |u(1-e^{-mu t})| >= 1")
        if spec.D > 0 and q.t > 0:
            conv = diffuse(g, spec.D, q.t)  # mu == 0: pure diffusion
            return float(np.sum(q.u.values * conv.values - g.values) * dV)
        integrand = q.u.values * math.exp(-mu * q.t) / (1 - w) * g.values
        return float(np.sum(integrand - g.values) * dV)
    if steps is None:
        steps = max(200, int(math.ceil(q.t * 4000)))
    dt = q.t / steps
    ksq = g.ksquared()
    half = np.exp(-spec.D * (dt / 2) * ksq)
    decay = math.exp(-mu * dt)
    w = q.u.values.astype(float).copy()

    def react(w):
        denom = 1.0 - w * (1.0 - decay)
        if np.any(denom <= 0):
            raise SeriesDivergence("logistic blow-up: u too large for this t")
        return w * decay / denom

    for _ in range(steps):
        w = np.fft.ifftn(np.fft.fftn(w) * half).real
        w = react(w)
        w = np.fft.ifftn(np.fft.fftn(w) * half).real
    return float(np.sum(g.values * (w - 1.0)) * dV)


def brownian_tree_density(spec: ModelSpec, t: float, kmax: int = 500) -> FieldGrid:
    """X = sum_k (k+1) e^{-tH} (-mu e1(mu,t))^k v, H = mu - D Lap.

    The k-th term is the contribution of lineages with exactly k fission
    events: the geometric birth-count weight e^{-mu t}(1-e^{-mu t})^k is
    position independent, and every particle's path is a full-time Brownian
    bridge from the ancestor, so diffusion enters only through e^{t D Lap}.
    Static case (D = 0) returns v e^{mu t} exactly.
    """
    g = spec.grid()
    mu = _const_rate(spec, "mu")
    if spec.D == 0:
        return g.with_values(g.values * math.exp(mu * t))
    base = diffuse(g, spec.D, t).values * math.exp(-mu * t)
    ratio = -mu * _e1_symbol(np.array(mu), t)  # = 1 - e^{-mu t}
    if ratio >= 1:
        raise SeriesDivergence("geometric ratio >= 1")
    total = np.zeros(g.shape)
    term = base
    for k in range(kmax + 1):
        add = (k + 1) * term
        total = total + add
        if np.max(np.abs(add)) < 1e-12 * max(float(np.max(np.abs(total))), 1e-300):
            break
        term = term * ratio
    else:
        raise SeriesDivergence(f"no convergence in {kmax} terms", partial=total)
    return g.with_values(total)


# ---------------------------------------------------------------------------
# A -> B conversion (static, spatially varying rate)
# ---------------------------------------------------------------------------


def convert_ab_densities(spec: ModelSpec, t: float) -> tuple[FieldGrid, FieldGrid]:
    """X_a = v_a e^{-mu(p) t}; X_b = v_b + v_a (1 - e^{-mu(p) t})."""
    g = spec.grid()
    mu = spec.rate("mu").spatial(g.shape)
    vb = spec.vb.values if spec.vb is not None else np.zeros(g.shape)
    decay = np.exp(-mu * t)
    xa = g.values * decay
    xb = vb + g.values * (1 - decay)
    return g.with_values(xa), g.with_values(xb)


# ---------------------------------------------------------------------------
# Time-dependent birth/death (phi <-> A, static in space)
# ---------------------------------------------------------------------------


def spont_birth_density(spec: ModelSpec, t: float) -> FieldGrid:
    """X = v + g(p) * integral_0^t h(s) ds for separable birth rate g*h."""
    g = spec.grid()
    mu = spec.rate("mu")
    cum = mu.temporal_integral(0.0, t)
    return g.with_values(g.values + mu.spatial(g.shape) * cum)


def birth_death_timedep_density(spec: ModelSpec, t: float) -> FieldGrid:
    """X = v e^{-N(0,t)} + integral_0^t mu(s) e^{-N(s,t)} ds, N = cum. death.

    Separable rates mu = g_mu(p) h_mu(s), nu = g_nu(p) h_nu(s); the outer
    integral is adaptive per distinct spatial value.
    """
    g = spec.grid()
    mu = spec.rates.get("mu", Rate(const=0.0))
    nu = spec.rates.get("nu", Rate(const=0.0))
    gmu = np.broadcast_to(mu.spatial(g.shape), g.shape)
    gnu = np.broadcast_to(nu.spatial(g.shape), g.shape)
    hnu_cum0 = nu.temporal_integral(0.0, t)

    out = g.values * np.exp(-gnu * hnu_cum0)
    pairs = np.stack([gmu.ravel(), gnu.ravel()], axis=1)
    uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
    born = np.zeros(len(uniq))
    from scipy import integrate

    for i, (gm, gn) in enumerate(uniq):
        if gm == 0:
            continue

        def integrand(s, gm=gm, gn=gn):
            return (
                gm
                * mu.temporal(s)
                * math.exp(-gn * nu.temporal_integral(s, t))
            )

        born[i], _ = integrate.quad(integrand, 0.0, t, epsabs=1e-8, epsrel=1e-8)
    return g.with_values(out + born[inv].reshape(g.shape))


# ---------------------------------------------------------------------------
# Discrete death (non-spatial)
# ---------------------------------------------------------------------------


def discrete_death_gf(v: float, mu: float, t: float, u: float) -> float:
    """G(u;t) = exp((u-1) v e^{-mu t}): Poisson with decaying mean."""
    return math.exp((u - 1.0) * v * math.exp(-mu * t))


def discrete_death_mean(v: float, mu: float, t: float) -> float:
    return v * math.exp(-mu * t)


def discrete_death_pmf(v: float, mu: float, t: float, nmax: int) -> np.ndarray:
    """P(N=n) for n = 0..nmax, from the generating function (Poisson)."""
    lam = v * math.exp(-mu * t)
    ns = np.arange(nmax + 1)
    from scipy import stats

    return stats.poisson.pmf(ns, lam)


# ---------------------------------------------------------------------------
# Dispatch + CSV output
# ---------------------------------------------------------------------------


def density(spec: ModelSpec, t: float):
    """Model-appropriate density evaluation (grid, or tuple for ConvertAB)."""
    if spec.kind == "DeathDiffusion":
        return death_diffusion_density(spec, t)
    if spec.kind == "BrownianTree":
        return brownian_tree_density(spec, t)
    if spec.kind == "ConvertAB":
        return convert_ab_densities(spec, t)
    if spec.kind == "SpontBirth":
        return spont_birth_density(spec, t)
    if spec.kind == "BirthDeathTimeDep":
        return birth_death_timedep_density(spec, t)
    if spec.kind == "DiscreteDeath":
        return discrete_death_mean(spec.v, spec.rate("mu").const, t)
    raise ModelError(f"no closed-form density for kind {spec.kind}")


def density_table(
    spec: ModelSpec, times: Sequence[float], evaluate: Callable, tag: str = ""
) -> str:
    """CSV text: `# model,kind[,tag],t=...` header, then `t,coordinate...,value`.

    evaluate(t) gives what is written at time t: a grid, a tuple of grids on
    the same grid (ConvertAB), or a scalar (DiscreteDeath, coordinate 0).
    """
    tag = f"{tag}," if tag else ""
    lines = [f"# model,{spec.kind},{tag}t={','.join(repr(float(t)) for t in times)}"]
    coord_names = ",".join(f"x{i}" for i in range(max(spec.d, 1)))
    lines.append(f"t,{coord_names},value")
    labels = None
    for t in times:
        res = evaluate(t)
        for fg in res if isinstance(res, tuple) else (res,):
            if not isinstance(fg, FieldGrid):
                lines.append(f"{float(t)!r},0,{float(fg)!r}")
                continue
            if labels is None:
                labels = point_labels(fg.axes())
            lines += table_rows(repr(float(t)), labels, fg.values)
    return "\n".join(lines) + "\n"


def density_csv(spec: ModelSpec, times: Sequence[float]) -> str:
    """Closed-form densities at `times` as a density_table."""
    return density_table(spec, times, lambda t: density(spec, t))
