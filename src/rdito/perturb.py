"""Perturbative machinery for pairwise annihilation with a non-local kernel.

The simplex time factor of Feynman diagrams (one entry of a bidiagonal
matrix exponential), a direct evaluation of the third-order diagram, and the
tree-level Dyson recursion together with its position-space mean-field limit

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
import tempfile
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator

import numpy as np

from .grid import FieldGrid, point_labels, reprs, stream_rows, table_block
from .grid import dense_map, full_spectrum, half_fft, half_ifft, half_spectrum, heat_change

_TAYLOR_TERMS = 18  # terms of the scaled exponential in simplex_time_factor (1/18! < 2^-52)
_BLOCK = 2 ** 16  # most summands third_order_term holds at once

FIXED_POINT_TOL = 1e-10  # a dyson_tree_density step is done once a sweep moves it less
FIXED_POINT_SWEEPS = 50  # and raises NonConvergence after this many sweeps

_MAX_CELLS = 2 ** 24  # most table cells, (steps + 1) x cells, of a tree-level solve


class PerturbError(Exception):
    """Base class for perturbation-solver failures."""


class GridTooCoarse(PerturbError):
    """Momentum sums have a non-negligible tail at the grid boundary."""


class NonConvergence(PerturbError):
    """A fixed-point sweep failed to reach tolerance."""


class Unstable(PerturbError):
    """A time step overflowed: the solve produced a field that is not finite."""


# ---------------------------------------------------------------------------
# Momentum grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentumGrid:
    """Reaction kernel and initial intensity in the momentum representation,
    as full spectra (FieldGrid.to_momentum) on the position grid `grid`.

    ``Rhat`` must be the transform of a real even (radial) kernel, so it is
    real and even on the grid, as kernel_field ensures; ``vhat`` is the
    transform of a nonnegative initial intensity, so it is Hermitian,
    vhat(-k) = conj vhat(k).
    """

    grid: FieldGrid
    Rhat: np.ndarray
    vhat: np.ndarray
    D: float

    def __post_init__(self):
        if self.Rhat.shape != self.grid.shape or self.vhat.shape != self.grid.shape:
            raise PerturbError("kernel and intensity spectra must have the grid's shape "
                               f"{self.grid.shape}")
        if self.D < 0:
            raise PerturbError("D must be >= 0")
        v = self.vhat
        scale = max(float(np.max(np.abs(v))), 1.0)
        if np.max(np.abs(v - np.conj(_reflect(v)))) > 1e-10 * scale:
            raise PerturbError("intensity transform must be Hermitian (intensity real)")

    @property
    def dk(self) -> tuple[float, ...]:
        return tuple(2.0 * math.pi / b for b in self.grid.box)


def _reflect(a: np.ndarray) -> np.ndarray:
    """a(-k): every axis index i mapped to -i modulo the axis length."""
    return a[np.ix_(*[(-np.arange(n)) % n for n in a.shape])]


def kernel_field(spec) -> FieldGrid:
    """Position-space reaction kernel R sampled on the model grid.

    The kernel is read from the model's "R" rate: constant times an optional
    grid-shaped table of samples R(x) at the grid offsets (periodically
    wrapped, so entries near the far edge are negative offsets).  PerturbError
    unless it is even, R(x) = R(-x), as a radial kernel is: both tree-level
    solvers take its transform to be real.
    """
    g = spec.grid()
    r = np.asarray(spec.rate("R").spatial(g.shape), float)
    if np.max(np.abs(r - _reflect(r))) > 1e-10 * max(float(np.max(np.abs(r))), 1.0):
        raise PerturbError("kernel R must be even, R(x) = R(-x)")
    return g.with_values(r)


def momentum_grid(spec) -> MomentumGrid:
    """Momentum-space view of an Annihilation model specification, the
    input of third_order_term."""
    g = spec.grid()
    return MomentumGrid(grid=g, Rhat=kernel_field(spec).to_momentum(), vhat=g.to_momentum(),
                        D=float(spec.D))


# ---------------------------------------------------------------------------
# Simplex time factors
# ---------------------------------------------------------------------------


def simplex_time_factor(rates, t: float):
    """Iterated integral of a product of interval exponentials over the
    ordered time simplex t > tau_n > ... > tau_1 > 0: prod_i exp(-a_i
    (tau_{i+1} - tau_i)), with `rates` the a_i >= 0 along the last axis,
    latest interval first; leading axes are a batch.  A float for one rate
    vector, else an array of the batch shape.

    The integral is the (0, n-1) entry of exp(t A), A upper bidiagonal with
    diagonal -a_i and superdiagonal 1 (Van Loan, IEEE TAC 23:395, 1978).
    Shifted by the least rate and scaled to norm <= 1, the exponential is a
    fixed Taylor sum squared back, so equal, near-equal and distinct rates
    take the same path.
    """
    a = np.atleast_1d(np.asarray(rates, float))
    if a.shape[-1] == 0 or not np.all((a >= 0) & np.isfinite(a)):
        raise PerturbError(f"simplex_time_factor needs one or more finite rates >= 0, got {rates!r}")
    n = a.shape[-1]
    amin = a.min(axis=-1)
    A = np.zeros(a.shape + (n,))
    A[..., range(n), range(n)] = -t * (a - amin[..., None])
    A[..., range(n - 1), range(1, n)] = t
    # 2^s >= the infinity norm of tA, so tA / 2^s has norm <= 1
    s = np.maximum(np.frexp(np.abs(A).sum(axis=-1).max(axis=-1))[1], 0)
    A /= np.ldexp(1.0, s)[..., None, None]
    E = eye = np.eye(n)
    for j in range(_TAYLOR_TERMS - 1, 0, -1):
        E = eye + A @ E / j
    for i in range(int(s.max(initial=0))):
        E = np.where((i < s)[..., None, None], E @ E, E)
    out = E[..., 0, n - 1] * np.exp(-amin * t)
    return float(out) if out.ndim == 0 else out


def third_order_rates(D: float, k, l, m, n) -> np.ndarray:
    """Interval rates (latest first, along a new last axis) of the
    third-order density diagram.

    Momenta lie along the last axis (a scalar is a 1-D momentum) and their
    leading axes broadcast.  Each rate is D times the total squared momenta
    of the lines present in that time interval: the external line k after
    the last vertex, then the configurations produced by the loop vertex,
    the cubic vertex, and the three incoming lines.
    """
    k, l, m, n = (np.atleast_1d(np.asarray(x, float)) for x in (k, l, m, n))

    def sq(x):
        return np.sum(x * x, axis=-1)

    q = k - m - n
    return D * np.stack(np.broadcast_arrays(
        sq(k),
        sq(q + l) + sq(m + n - l),
        sq(q + l) + sq(m - l) + sq(n),
        sq(q) + sq(m) + sq(n),
    ), axis=-1)


def third_order_term(grid: MomentumGrid, k, t: float) -> float:
    """Third-order diagram contribution to the density at grid momentum k.

    ``k`` is a grid (multi-)index; momentum sums run over the grid with
    measure prod(dk) per axis and the transform lookups wrap periodically.
    The (l, m, n) sum is taken one l and one block of m at a time, at most
    _BLOCK summands at once.  Raises GridTooCoarse when the summands with a
    momentum at the grid boundary (the largest |k| on some axis) are not
    negligible against the accumulated sum.
    """
    ik = (k,) if isinstance(k, (int, np.integer)) else tuple(int(i) for i in k)
    d, shape = grid.grid.dim, grid.grid.shape
    if len(ik) != d:
        raise PerturbError(f"k index has {len(ik)} axes, grid has {d}")
    kax = grid.grid.kaxes()
    idx = np.indices(shape).reshape(d, -1)  # per axis, the grid index of each cell
    mom = np.stack([kax[a][i] for a, i in enumerate(idx)], axis=-1)
    edge = np.any(np.abs(mom) == np.abs(mom).max(axis=0), axis=-1)
    kvec = np.array([kax[a][i] for a, i in enumerate(ik)])
    rv = np.real(grid.Rhat).ravel()
    vv = grid.vhat.ravel()
    iv = np.ravel_multi_index(tuple(i - j[:, None] - j for i, j in zip(ik, idx)), shape, mode="wrap")
    w_mn = np.outer(rv * vv, rv * vv) * vv[iv]  # the (m, n) weights, k - m - n wrapped

    cells = len(rv)
    rows = max(1, _BLOCK // cells)
    total, total_abs, tail_abs = 0j, 0.0, 0.0
    for il in range(cells):
        for m0 in range(0, cells, rows):
            mb = slice(m0, m0 + rows)
            rates = third_order_rates(grid.D, kvec, mom[il], mom[mb, None], mom[None, :])
            s = rv[il] * w_mn[mb] * simplex_time_factor(rates, t)
            a = np.abs(s)
            total += s.sum()
            total_abs += a.sum()
            tail_abs += a.sum() if edge[il] else a[edge[mb, None] | edge[None, :]].sum()
    if total_abs > 0 and tail_abs > 1e-6 * total_abs:
        raise GridTooCoarse(
            f"boundary tail {tail_abs:.3e} exceeds 1e-6 of sum {total_abs:.3e}"
        )
    measure = float(np.prod(grid.dk)) ** 3
    pref = -measure / (2.0 * (2.0 * math.pi) ** d)
    return float(np.real(pref * total))


# ---------------------------------------------------------------------------
# Tree-level density: Dyson recursion and mean-field PDE
# ---------------------------------------------------------------------------


class _Steps:
    """The times i * dt, i = 0, ..., count - 1, of a time-stepped solve, as a
    sized iterable that stores none of them.  (Not a dataclass: making one
    costs about 1.5 ms of every command's start.)"""

    def __init__(self, dt: float, count: int):
        self.dt, self.count = dt, count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[float]:
        return (i * self.dt for i in range(self.count))


POSITION = "position"  # a TimeSeries of position fields
MOMENTUM = "momentum"  # a TimeSeries of half spectra


@dataclass(frozen=True)
class TimeSeries:
    """Fields on one grid of `shape` in `box` at the given times, in
    representation rep, POSITION or MOMENTUM (ValueError for any other):
    the i-th of `fields` is the field at the i-th of
    `times`.  The fields are drawn once, as the table is written, so a
    solver can hand over each field as it is solved; `times` is sized, so
    the writer knows the table's length up front.  A position field is the
    grid's samples.  A momentum field is the half spectrum of a real field,
    in grid.half_spectrum's layout; it stands for its Hermitian completion
    X(-k) = conj X(k), which grid.full_spectrum gives and csv writes."""

    times: Collection[float]
    box: tuple[float, ...]
    shape: tuple[int, ...]
    rep: str
    fields: Iterable[np.ndarray]  # each of shape `shape`, or of its half spectrum's

    def __post_init__(self):
        if self.rep not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown representation {self.rep!r}")

    def write(self, out: int) -> str:
        """Write the csv() table to the file descriptor `out` through
        grid.stream_rows, which formats rows on a second core while the
        fields are drawn and never holds the whole table, and return the
        SHA-256 hex digest of its bytes.  ValueError if a field has another
        shape, or if the times and the fields differ in number.

        The cells of a piece of rows are formatted by one grid.reprs call.
        A momentum row takes the strings of the real parts of its half
        spectrum, and one itemgetter spreads them to the full grid, so a cell
        that the completion fills repeats the string of its mirror, and both
        cells of a pair k, -k that the half spectrum holds take the string of
        the first in C order, so the table is exactly Hermitian."""
        g = FieldGrid(self.box, np.zeros(self.shape))
        pos = self.rep == POSITION
        held = g.shape if pos else half_spectrum(g.values).shape
        cols = ",".join(f"x{i}" if pos else f"k{i}" for i in range(g.dim))
        block = table_block(point_labels(g.axes() if pos else g.kaxes()))
        pick = itemgetter(slice(1, None))  # a row's cells, after its lead
        if not pos:
            # the half-spectrum index each cell of the grid is written from
            source = full_spectrum(np.arange(math.prod(held)).reshape(held), self.shape[-1])
            source = np.minimum(source, _reflect(source)).ravel()
            if np.any(source != np.arange(source.size)):
                pick = itemgetter(*(1 + source).tolist())

        def rows():
            for t, x in zip(self.times, self.fields, strict=True):
                if x.shape != held:
                    raise ValueError(f"{self.rep} fields on a grid of {self.shape} have shape "
                                     f"{held}, got {x.shape}")
                yield t, x.reshape(-1).real

        def text(rows):
            cells, width = reprs(rows), rows.shape[1]
            for lo in range(0, len(cells), width):
                row = cells[lo:lo + width]
                yield block(row[0], pick(row))

        return stream_rows(rows(), len(self.times), g.values.size, text,
                           f"t,{cols},value\n", out)

    def csv(self) -> str:
        """Rows ``t,coordinate...,value`` over all sample points and times."""
        with tempfile.TemporaryFile() as f:
            self.write(f.fileno())
            f.seek(0)
            return f.read().decode()


def _check_steps(steps: int, shape: tuple[int, ...]) -> None:
    """PerturbError unless 1 <= steps and the table has at most _MAX_CELLS
    cells, (steps + 1) x cells: a bound on the output's size and the run
    time, since the fields stream and memory does not grow with the steps."""
    if steps < 1:
        raise PerturbError("steps must be >= 1")
    cells = math.prod(shape)
    if (steps + 1) * cells > _MAX_CELLS:
        raise PerturbError(f"{steps} steps on {cells} cells make a table of {(steps + 1) * cells} "
                           f"cells, more than the {_MAX_CELLS} (2^24) allowed")


def dyson_collision(rhat: np.ndarray, shape: tuple[int, ...],
                    dV: float) -> Callable[[np.ndarray], np.ndarray]:
    """The map from the half spectrum of a real field x on a grid of `shape`
    to the half spectrum of x (R*x) / dV, in a new array, where `rhat` is
    the half spectrum of the even kernel R.

    Two maps through dense_map: x and R*x as one flat pair, then the half
    spectrum of a flat field; the product of the pair's halves lies between
    them.  On a dense grid the collision is two bare products with that
    elementwise product between them; above DENSE_CELLS the same two maps
    are FFTs.
    """
    d, cells = len(shape), math.prod(shape)

    def pair(xh):
        """x and R*x, flat and one after the other, for each leading index."""
        both = half_ifft(np.stack([xh, rhat * xh], axis=-d - 1), shape)
        return both.reshape(*both.shape[:-d - 1], 2 * cells)

    to_pair = dense_map(pair, rhat.shape, complex)
    to_half = dense_map(lambda y: half_fft(y.reshape(*y.shape[:-1], *shape), d) / dV, (cells,))

    def collision(xh):
        both = to_pair(xh)
        return to_half(both[:cells] * both[cells:])

    return collision


def dyson_tree_density(spec, t_end: float, steps: int) -> TimeSeries:
    """Tree-level density of the Annihilation model `spec`, in momentum
    space, by time-stepped fixed point of the Dyson recursion.

    Trapezoid rule in the interaction time, FFT circular convolution over the
    momentum grid, and a fixed-point solve for the implicit endpoint term.
    The propagator factorizes as e^{-D(t-s)k^2} = e^{-D dt k^2} e^{-D(t-dt-s)k^2},
    so the trapezoid history sum is carried forward one step at a time: the
    cost is O(steps) in time and O(grid) in history memory.

    The density is real, so the recursion runs on the half spectrum (last
    axis k >= 0), and the series holds the half spectrum of every step, each
    handed over as it is solved.  NonConvergence, from the step that stalls,
    reaches whoever draws the fields.
    """
    g = spec.grid()
    shape = g.shape
    _check_steps(steps, shape)
    dt = t_end / steps
    k2 = half_spectrum(g.ksquared())
    rhat = half_spectrum(np.real(kernel_field(spec).to_momentum()))
    dV = g.cell_volume
    vhat = half_spectrum(g.to_momentum())
    step_prop = np.exp(-spec.D * dt * k2)
    collision = dyson_collision(rhat, shape, dV)
    half_dt = 0.5 * dt

    def fields():
        yield vhat
        coll = collision(vhat)
        hist = np.zeros_like(vhat)
        change, size = np.empty_like(vhat), np.empty(vhat.shape)  # a sweep's residual
        for i in range(1, steps + 1):
            # trapezoid weight 1/2 on the s = 0 end of the history
            hist = step_prop * (hist + (0.5 if i == 1 else 1.0) * coll)
            base = np.exp(-spec.D * (i * dt) * k2) * vhat - dt * hist
            # first-order guess for the implicit endpoint term
            x = base - half_dt * step_prop * coll
            for _ in range(FIXED_POINT_SWEEPS):
                # xn = base - (dt / 2) collision(x), in the array collision made
                xn = collision(x)
                np.multiply(half_dt, xn, out=xn)
                np.subtract(base, xn, out=xn)
                corr = np.abs(np.subtract(xn, x, out=change), out=size).max()
                x = xn
                if corr < FIXED_POINT_TOL:
                    break
            else:
                raise NonConvergence(f"fixed point stalled at correction {corr:.3e} (step {i})")
            coll = collision(x)
            yield x

    return TimeSeries(_Steps(dt, steps + 1), g.box, shape, MOMENTUM, fields())


def mean_field_pde(spec, t_end: float, steps: int) -> TimeSeries:
    """Integrate dX/dt = D lap X - X (R*X) by Strang splitting.

    Diffusion half-steps are exact (spectral); the reaction substep advances
    the coupled local ODE with classical RK4.  Every transform is of a real
    field, so all of them run on the half spectrum.  Each field is handed
    over as it is solved.  A step too long for RK4 overflows, and a value
    that is not finite stays so, so Unstable is raised once, after the last
    field.
    """
    g = spec.grid()
    shape = g.shape
    _check_steps(steps, shape)
    rhat = half_fft(kernel_field(spec).values) * g.cell_volume
    dt = t_end / steps
    heat_half_change = heat_change(g, spec.D, dt / 2.0)
    convolve = dense_map(lambda x: half_ifft(rhat * half_fft(x, g.dim), shape), shape)

    # Each step makes few temporaries and updates them in place: on small
    # grids a step is mostly NumPy's per-call cost.  RK4 runs on the loss
    # rate m = x (R*x) = -dX/dt, so every sign is carried by a subtraction;
    # the bits are those of x + h k with k = -x (R*x), since negation is
    # exact and a + (-b) is a - b.
    def diffuse_half_step(x):
        y = heat_half_change(x)
        y += x
        return y

    def loss(x):
        y = convolve(x)
        y *= x
        return y

    def ahead(x, h, m):
        """x - h m, in a new array."""
        y = h * m
        return np.subtract(x, y, out=y)

    @np.errstate(over="ignore", invalid="ignore")
    def step(x):
        x = diffuse_half_step(x)
        m1 = loss(x)
        m2 = loss(ahead(x, 0.5 * dt, m1))
        m3 = loss(ahead(x, 0.5 * dt, m2))
        m4 = loss(ahead(x, dt, m3))
        m2 *= 2  # ((m1 + 2 m2) + 2 m3) + m4, in the order RK4 sums them
        m2 += m1
        m3 *= 2
        m2 += m3
        m2 += m4
        return diffuse_half_step(ahead(x, dt / 6.0, m2))

    def fields():
        x = g.values
        yield x
        for _ in range(steps):
            x = step(x)
            yield x
        if not np.all(np.isfinite(x)):
            raise Unstable(f"mean-field field is not finite by t = {t_end:g}: the step dt = {dt:g} "
                           "is too long; use more steps")

    return TimeSeries(_Steps(dt, steps + 1), g.box, shape, POSITION, fields())
