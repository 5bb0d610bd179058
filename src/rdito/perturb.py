"""Perturbative machinery for pairwise annihilation with a non-local kernel.

Momentum-space propagators, the simplex time factor of Feynman diagrams (via
partial fractions of the Laplace transform), a direct evaluation of the
third-order diagram, and the tree-level Dyson recursion together with its
position-space mean-field limit

    dX/dt = D lap X - X (R * X).

The tree recursion is written with the post-vertex leg propagating the
external momentum k,

    X(k;t) = e^{-D t k^2} vhat_k
             - int_0^t ds e^{-D(t-s) k^2} (1/(2 pi)^d)
               int dm Rhat_m X(m;s) X(k-m;s),

which differentiates exactly to the local mean-field equation above; the sign
is the decaying branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import MOMENTUM, POSITION, FieldGrid, point_labels, table_rows

# Equal-time propagator value theta(0); isolated here as a convention.
THETA0 = 1.0

# Rates closer than this (relative to the largest rate) are merged into one
# confluent cluster in simplex_time_factor.
CONFLUENT_TOL = 1e-9


class PerturbError(Exception):
    """Base class for perturbation-solver failures."""


class GridTooCoarse(PerturbError):
    """Momentum sums have a non-negligible tail at the grid boundary."""


class NonConvergence(PerturbError):
    """A fixed-point sweep failed to reach tolerance."""


# ---------------------------------------------------------------------------
# Momentum grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentumGrid:
    """Reaction kernel and initial intensity in the momentum representation.

    ``Rhat`` must be the transform of a real even (radial) kernel, so it is
    real and even on the grid; ``vhat`` is the transform of a nonnegative
    initial intensity.
    """

    Rhat: FieldGrid
    vhat: FieldGrid
    D: float

    def __post_init__(self):
        if self.Rhat.rep != MOMENTUM or self.vhat.rep != MOMENTUM:
            raise PerturbError("MomentumGrid fields must be momentum-representation")
        if self.Rhat.box != self.vhat.box or self.Rhat.shape != self.vhat.shape:
            raise PerturbError("kernel and intensity grids must match")
        if self.D < 0:
            raise PerturbError("D must be >= 0")
        r = self.Rhat.values
        scale = max(float(np.max(np.abs(r))), 1.0)
        if np.max(np.abs(np.imag(r))) > 1e-10 * scale:
            raise PerturbError("kernel transform must be real (kernel radial)")
        rr = np.real(r)
        flip = rr[tuple(np.ix_(*[(-np.arange(n)) % n for n in rr.shape]))]
        if np.max(np.abs(rr - flip)) > 1e-10 * scale:
            raise PerturbError("kernel transform must be even")

    @property
    def d(self) -> int:
        return self.Rhat.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.Rhat.shape

    @property
    def box(self) -> tuple[float, ...]:
        return self.Rhat.box

    @property
    def dk(self) -> tuple[float, ...]:
        return tuple(2.0 * math.pi / b for b in self.box)


def kernel_field(spec) -> FieldGrid:
    """Position-space reaction kernel R sampled on the model grid.

    The kernel is read from the model's "R" rate: constant times an optional
    grid-shaped table of samples R(x) at the grid offsets (periodically
    wrapped, so entries near the far edge are negative offsets).
    """
    g = spec.grid()
    return g.with_values(np.asarray(spec.rate("R").spatial(g.shape), float))


def momentum_grid(spec) -> MomentumGrid:
    """Momentum-space view of an Annihilation model specification."""
    return MomentumGrid(
        Rhat=kernel_field(spec).to_momentum(),
        vhat=spec.grid().to_momentum(),
        D=float(spec.D),
    )


# ---------------------------------------------------------------------------
# Propagator and simplex time factors
# ---------------------------------------------------------------------------


def propagator(k, t: float, s: float, D: float) -> float:
    """Free propagator theta(t-s) exp(-(t-s) D |k|^2); theta(0) = THETA0."""
    dt = t - s
    if dt < 0:
        return 0.0
    if dt == 0:
        return THETA0
    k = np.atleast_1d(np.asarray(k, float))
    return math.exp(-dt * D * float(k @ k))


@dataclass(frozen=True)
class ExpProduct:
    """Product of interval exponentials over an ordered time simplex.

    ``rates`` lists the decay rate of each consecutive interval, latest first:
    with times t > tau_n > ... > tau_1 > 0 the represented integrand is
    prod_i exp(-a_i (tau_{i+1} - tau_i)).
    """

    rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(a) for a in self.rates))
        if not self.rates:
            raise PerturbError("ExpProduct needs at least one interval")
        if any(a < 0 for a in self.rates):
            raise PerturbError("interval rates must be >= 0")


def _cluster_rates(rates) -> list[tuple[float, int]]:
    """Group near-degenerate rates into (representative, multiplicity)."""
    srt = sorted(rates)
    tol = CONFLUENT_TOL * max(srt[-1], 1e-300)
    out: list[list[float]] = [[srt[0]]]
    for a in srt[1:]:
        if a - out[-1][-1] < tol:
            out[-1].append(a)
        else:
            out.append([a])
    return [(sum(c) / len(c), len(c)) for c in out]


def simplex_time_factor(ep: ExpProduct, t: float) -> float:
    """Iterated integral of the exponential product over the ordered simplex.

    Equals the (n-fold) convolution of the interval exponentials:
    sum_i e^{-a_i t} / prod_{j != i} (a_j - a_i) for distinct rates, with
    repeated (confluent) rates handled by polynomial-times-exponential
    residues from the Taylor expansion at the repeated pole.
    """
    clusters = _cluster_rates(ep.rates)
    total = 0.0
    for ci, (a, m) in enumerate(clusters):
        # Taylor coefficients of prod_{other} (s + b)^{-mo} at s = -a.
        coef = np.zeros(m)
        coef[0] = 1.0
        for cj, (b, mo) in enumerate(clusters):
            if cj == ci:
                continue
            delta = b - a
            fac = np.array(
                [
                    (-1.0) ** j * math.comb(mo + j - 1, j) * delta ** (-(mo + j))
                    for j in range(m)
                ]
            )
            coef = np.convolve(coef, fac)[:m]
        for j in range(m):
            p = m - 1 - j
            total += coef[j] * t ** p * math.exp(-a * t) / math.factorial(p)
    return float(total)


def third_order_rates(D: float, k, l, m, n) -> tuple[float, float, float, float]:
    """Interval rates (latest first) of the third-order density diagram.

    Each rate is D times the total squared momenta of the lines present in
    that time interval: the external line k after the last vertex, then the
    configurations produced by the loop vertex, the cubic vertex, and the
    three incoming lines.
    """
    k, l, m, n = (np.atleast_1d(np.asarray(x, float)) for x in (k, l, m, n))

    def sq(x):
        return float(x @ x)

    return (
        D * sq(k),
        D * (sq(k - m - n + l) + sq(m + n - l)),
        D * (sq(k - m - n + l) + sq(m - l) + sq(n)),
        D * (sq(k - m - n) + sq(m) + sq(n)),
    )


def _boundary_indices(n: int) -> set[int]:
    """Grid indices holding the largest |frequency| along an axis of size n."""
    if n % 2 == 0:
        return {n // 2}
    return {(n - 1) // 2, (n + 1) // 2}


def third_order_term(grid: MomentumGrid, k, t: float) -> float:
    """Third-order diagram contribution to the density at grid momentum k.

    ``k`` is a grid (multi-)index; momentum sums run over the grid with
    measure prod(dk) per axis and the transform lookups wrap periodically.
    Raises GridTooCoarse when the summand at the grid boundary is not
    negligible against the accumulated sum.
    """
    ik = (k,) if isinstance(k, (int, np.integer)) else tuple(int(i) for i in k)
    if len(ik) != grid.d:
        raise PerturbError(f"k index has {len(ik)} axes, grid has {grid.d}")
    shape = grid.shape
    kax = grid.Rhat.kaxes()
    bidx = [_boundary_indices(n) for n in shape]
    rv = np.real(grid.Rhat.values)
    vv = grid.vhat.values
    kvec = np.array([kax[a][ik[a]] for a in range(grid.d)])

    total = 0.0 + 0.0j
    total_abs = 0.0
    tail_abs = 0.0
    for il in np.ndindex(shape):
        lvec = np.array([kax[a][il[a]] for a in range(grid.d)])
        for im in np.ndindex(shape):
            mvec = np.array([kax[a][im[a]] for a in range(grid.d)])
            for i_n in np.ndindex(shape):
                nvec = np.array([kax[a][i_n[a]] for a in range(grid.d)])
                iv = tuple((ik[a] - im[a] - i_n[a]) % shape[a] for a in range(grid.d))
                w = rv[il] * rv[im] * rv[i_n] * vv[iv] * vv[im] * vv[i_n]
                if w == 0:
                    continue
                rates = third_order_rates(grid.D, kvec, lvec, mvec, nvec)
                s = w * simplex_time_factor(ExpProduct(rates), t)
                total += s
                total_abs += abs(s)
                if any(
                    idx[a] in bidx[a]
                    for idx in (il, im, i_n)
                    for a in range(grid.d)
                ):
                    tail_abs += abs(s)
    if total_abs > 0 and tail_abs > 1e-6 * total_abs:
        raise GridTooCoarse(
            f"boundary tail {tail_abs:.3e} exceeds 1e-6 of sum {total_abs:.3e}"
        )
    measure = float(np.prod(grid.dk)) ** 3
    pref = -measure / (2.0 * (2.0 * math.pi) ** grid.d)
    return float(np.real(pref * total))


# ---------------------------------------------------------------------------
# Tree-level density: Dyson recursion and mean-field PDE
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled time series of fields on one grid."""

    times: tuple[float, ...]
    fields: tuple[FieldGrid, ...]

    def __post_init__(self):
        if len(self.times) != len(self.fields):
            raise PerturbError("times and fields must have equal length")

    @property
    def final(self) -> FieldGrid:
        return self.fields[-1]

    def csv(self) -> str:
        """Rows ``t,coordinate...,value`` over all sample points and times."""
        g = self.fields[0]
        pos = g.rep == POSITION
        cols = ",".join(f"x{i}" if pos else f"k{i}" for i in range(g.dim))
        labels = point_labels(g.axes() if pos else g.kaxes())
        lines = [f"t,{cols},value"]
        for t, f in zip(self.times, self.fields):
            lines += table_rows(repr(float(t)), labels, np.real(f.values))
        return "\n".join(lines) + "\n"


def _collision_hat(xhat: np.ndarray, rhat: np.ndarray, dV: float) -> np.ndarray:
    """Transform of x (R*x) given the transforms of x and R."""
    x = np.fft.ifftn(xhat) / dV
    rx = np.fft.ifftn(rhat * xhat) / dV
    return np.fft.fftn(x * rx) * dV


def dyson_tree_density(
    grid: MomentumGrid, t_end: float, steps: int, *, tol: float = 1e-10, sweeps: int = 50
) -> TimeSeries:
    """Tree-level density by time-stepped fixed point of the Dyson recursion.

    Trapezoid rule in the interaction time, FFT circular convolution over the
    momentum grid, and a fixed-point solve for the implicit endpoint term.
    The propagator factorizes as e^{-D(t-s)k^2} = e^{-D dt k^2} e^{-D(t-dt-s)k^2},
    so the trapezoid history sum is carried forward one step at a time: the
    cost is O(steps) in time and O(grid) in history memory.
    """
    if steps < 1:
        raise PerturbError("steps must be >= 1")
    dt = t_end / steps
    k2 = grid.Rhat.ksquared()
    rhat = np.real(grid.Rhat.values)
    dV = grid.Rhat.cell_volume
    vhat = np.asarray(grid.vhat.values, complex)
    step_prop = np.exp(-grid.D * dt * k2)

    xs = [vhat]
    coll = _collision_hat(vhat, rhat, dV)
    hist = np.zeros_like(vhat)
    for i in range(1, steps + 1):
        # trapezoid weight 1/2 on the s = 0 end of the history
        hist = step_prop * (hist + (0.5 if i == 1 else 1.0) * coll)
        base = np.exp(-grid.D * (i * dt) * k2) * vhat - dt * hist
        # first-order guess for the implicit endpoint term
        x = base - 0.5 * dt * step_prop * coll
        for _ in range(sweeps):
            xn = base - 0.5 * dt * _collision_hat(x, rhat, dV)
            corr = float(np.max(np.abs(xn - x)))
            x = xn
            if corr < tol:
                break
        else:
            raise NonConvergence(
                f"fixed point stalled at correction {corr:.3e} (step {i})"
            )
        coll = _collision_hat(x, rhat, dV)
        xs.append(x)
    times = tuple(i * dt for i in range(steps + 1))
    fields = tuple(FieldGrid(grid.box, x, MOMENTUM) for x in xs)
    return TimeSeries(times, fields)


def mean_field_pde(spec, t_end: float, steps: int) -> TimeSeries:
    """Integrate dX/dt = D lap X - X (R*X) by Strang splitting.

    Diffusion half-steps are exact (spectral); the reaction substep advances
    the coupled local ODE with classical RK4.
    """
    if steps < 1:
        raise PerturbError("steps must be >= 1")
    g = spec.grid()
    rhat = np.fft.fftn(kernel_field(spec).values) * g.cell_volume
    k2 = g.ksquared()
    dt = t_end / steps
    half = np.exp(-spec.D * k2 * dt / 2.0)

    def conv(x):
        return np.real(np.fft.ifftn(rhat * np.fft.fftn(x)))

    def rhs(x):
        return -x * conv(x)

    x = np.asarray(g.values, float)
    times = [0.0]
    fields = [g]
    for i in range(1, steps + 1):
        x = np.real(np.fft.ifftn(half * np.fft.fftn(x)))
        k1 = rhs(x)
        k2_ = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2_)
        k4 = rhs(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2 * k2_ + 2 * k3 + k4)
        x = np.real(np.fft.ifftn(half * np.fft.fftn(x)))
        times.append(i * dt)
        fields.append(g.with_values(x))
    return TimeSeries(tuple(times), tuple(fields))
