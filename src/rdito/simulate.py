"""Particle-based Monte Carlo for the local models and A+A -> phi.

Independent replicas of an interacting particle system on the torus:
Gaussian diffusion steps, then the reactions of the model kind
(models.KINDS).  A step only accrues its diffusion variance 2 D dt; the
displacement is drawn for every particle at once when positions are next
read (by a spatial rate table, the A+A pair search, branching, immigration
or the end-of-run estimators; see ParticleEnsemble), which is the same law.
A unary event fires within a step with the exact
probability 1 - exp(-integral of its rate over the step) (Gillespie's
waiting-time law).  A death at a rate without a spatial table likewise
only accrues its hazard: survival over k steps is exp(-sum of the
hazards), so the thinning is drawn once, at the next read of the particle
set; reading n, species or replica draws it, as reading positions draws
the diffusion.  A tabulated death rate thins every step.  Spontaneous
births are Poisson with mean models.births over the step, the closed
form's own integral of the births that survive the kind's death to the
step's end; A+A pairs react through a radial kernel.  Replicas are
batched into chunks; each chunk owns an rng seeded from (seed, chunk
index), so results are independent of the thread schedule and
bit-identical across runs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .grid import FieldGrid, point_labels, reprs, table_block
from .models import KINDS, ModelSpec, Rate, Unsupported, as_int, as_number, births, check_keys

MAX_EVENT_PROB = 0.1
# Bounds on a run's work, refused before any step: replicas x steps x (1 +
# a bound on a replica's expected particles, _expected_particles), and that
# bound for one chunk.  The gated mc-death-diffusion workload needs 1.05e8
# and 82,000.
MAX_PARTICLE_STEPS = 10**10
MAX_CHUNK_PARTICLES = 2**22
_ZERO = Rate(const=0.0)  # an optional rate that a model leaves out


class SimError(Exception):
    pass


class StepTooLarge(SimError):
    pass


class Unfit(SimError, Unsupported):
    """A simulation config that does not fit the model; refused before any step."""


@dataclass(frozen=True)
class RadialKernel:
    """Radial reaction kernel R(r), sampled on [0, cutoff]."""

    cutoff: float
    samples: tuple[float, ...]

    def __post_init__(self):
        if not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise SimError(f"kernel cutoff must be finite and > 0, got {self.cutoff}")
        vals = np.asarray(self.samples, float)
        if vals.size == 0 or not np.all(np.isfinite(vals) & (vals >= 0)):
            raise SimError(
                f"kernel samples must be non-empty, finite and >= 0, got {list(self.samples)}"
            )

    def __call__(self, r: np.ndarray) -> np.ndarray:
        xs = np.linspace(0.0, self.cutoff, len(self.samples))
        return np.where(
            r <= self.cutoff, np.interp(r, xs, np.asarray(self.samples)), 0.0
        )

    @property
    def peak(self) -> float:
        return float(np.max(self.samples))


@dataclass(frozen=True)
class SimConfig:
    dt: float
    replicas: int
    seed: int
    kernel: RadialKernel | None = None
    chunk: int = 256

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise SimError(f"dt must be finite and > 0, got {self.dt}")
        if self.replicas <= 0:
            raise SimError("replicas must be > 0")
        if self.chunk < 1:
            raise SimError(f"chunk must be >= 1, got {self.chunk}")
        if self.seed < 0:
            raise SimError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        obj = json.loads(text)
        check_keys(obj, [f.name for f in fields(cls)], "a simulation config")
        kern = None
        if "kernel" in obj:
            check_keys(obj["kernel"], ("cutoff", "samples"), "a kernel")
            kern = RadialKernel(
                cutoff=as_number(obj["kernel"]["cutoff"], "kernel cutoff"),
                samples=tuple(as_number(x, "kernel sample") for x in obj["kernel"]["samples"]),
            )
        return cls(
            dt=as_number(obj["dt"], "dt"),
            replicas=as_int(obj["replicas"], "replicas"),
            seed=as_int(obj["seed"], "seed"),
            kernel=kern,
            chunk=as_int(obj.get("chunk", 256), "chunk"),
        )

    def check(self, spec: ModelSpec) -> None:
        """Unfit unless the model has a grid, the kernel cutoff is at most
        min(box)/2 (beyond half the box the minimum-image distance of a pair
        is ambiguous), and a kernel is given exactly when the kind pairs."""
        if not isinstance(spec.v, FieldGrid):
            raise Unfit(f"a {spec.kind} model has no grid to simulate on")
        half = min(spec.box) / 2
        if self.kernel is not None and not self.kernel.cutoff <= half:
            raise Unfit(f"kernel cutoff must be <= min(box)/2 = {half}, got {self.kernel.cutoff}")
        if KINDS[spec.kind].pairs != (self.kernel is not None):
            need = "needs a" if self.kernel is None else "takes no"
            raise Unfit(f"a {spec.kind} model {need} kernel in the simulation config")


@dataclass
class ParticleEnsemble:
    """Batched particle state across a chunk of replicas.

    Diffusion is drawn when positions are read, not when it happens: every
    particle carries the same accrued but undrawn Gaussian variance per axis,
    `pending`.  Brownian increments compose, so the first read of `positions`
    draws it all at once with `rng` and wraps onto the torus.  A death at a
    scalar rate is deferred the same way: survival is exp(-`hazard`), the
    accrued integral of the rate, so the first read of `n`, `species`,
    `replica` or `positions` thins once, before any diffusion draw.
    `select` works on the thinned, undrawn arrays; `append` reads first (but
    into an empty ensemble with nothing deferred it just takes the arrays),
    so newborns never inherit displacement or hazard they did not have."""

    box: tuple[float, ...]
    _positions: np.ndarray  # (n, d), `pending` not yet drawn
    _species: np.ndarray  # (n,)
    _replica: np.ndarray  # (n,)
    nreplicas: int
    time: float = 0.0
    rng: np.random.Generator | None = None
    pending: float = 0.0
    hazard: float = 0.0

    def _thin(self) -> None:
        if self.hazard:
            p, self.hazard = -math.expm1(-self.hazard), 0.0
            self.select(self.rng.random(len(self._positions)) >= p)

    @property
    def positions(self) -> np.ndarray:
        self._thin()
        if self.pending:
            pos = self._positions + self.rng.normal(
                0.0, math.sqrt(self.pending), size=self._positions.shape)
            box = np.asarray(self.box)
            pos -= box * np.floor(pos / box)
            self._positions, self.pending = pos, 0.0
        return self._positions

    @property
    def n(self) -> int:
        self._thin()
        return len(self._positions)

    @property
    def species(self) -> np.ndarray:
        self._thin()
        return self._species

    @species.setter
    def species(self, value: np.ndarray) -> None:
        self._thin()
        self._species = value

    @property
    def replica(self) -> np.ndarray:
        self._thin()
        return self._replica

    def select(self, keep: np.ndarray) -> None:
        idx = np.flatnonzero(keep)
        self._positions = self._positions.take(idx, axis=0)
        self._species = self._species.take(idx)
        self._replica = self._replica.take(idx)

    def append(self, positions, species, replica) -> None:
        if len(self._positions) or self.pending or self.hazard:
            positions = np.concatenate([self.positions, positions])
            species = np.concatenate([self._species, species])
            replica = np.concatenate([self._replica, replica])
        self._positions, self._species, self._replica = positions, species, replica


@dataclass(frozen=True)
class EstimatorReport:
    fields: dict  # name -> FieldGrid (mean and se per species)
    scalars: dict  # name -> (mean, standard error)
    replicas: int

    def scalars_json(self) -> str:
        obj = {
            "replicas": self.replicas,
            "scalars": {k: [v[0], v[1]] for k, v in sorted(self.scalars.items())},
        }
        return json.dumps(obj, indent=2, sort_keys=True)

    def grid_csv(self) -> str:
        chunks = ["name,index,value\n"]
        for name in sorted(self.fields):
            fg = self.fields[name]
            block = table_block(point_labels([np.arange(n) for n in fg.shape], ":"))
            chunks.append(block(name, reprs(fg.values)))
        return "".join(chunks)


# ---------------------------------------------------------------------------
# Sampling and stepping
# ---------------------------------------------------------------------------


def _draw_cells(rng, p: np.ndarray, size: int) -> np.ndarray:
    """`size` cells i.i.d. with probabilities p, value for value the cells of
    `rng.choice(len(p), size, p=p)`, leaving rng where choice leaves it.

    choice searches its cdf, cumsum(p) / its last entry, for each of `size`
    uniforms.  A table of that cdf at j / M answers every uniform u whose
    bucket [j / M, (j + 1) / M) holds no cdf step, and only the rest are
    searched (Chen & Asau, AIIE Trans. 6, 163, 1974).  M is the power of two
    at or above min(size, 16 cells), so u M and j / M are exact, the table
    costs no more than the draws, and at most `cells` buckets hold a step."""
    cdf = p.cumsum()
    if not (0 < cdf[-1] < math.inf and p.min() >= 0):
        raise SimError("cell weights must be finite and >= 0 with a positive sum")
    cdf /= cdf[-1]
    u = rng.random(size)
    m = 1 << (min(size, 16 * len(cdf)) - 1).bit_length()
    at = cdf.searchsorted(np.arange(m + 1) / m, side="right")
    table = np.where(at[1:] == at[:-1], at[:-1], -1)  # -1: a step in the bucket
    cells = table[(u * m).astype(np.intp)]
    miss = np.flatnonzero(cells < 0)
    cells[miss] = cdf.searchsorted(u[miss], side="right")
    return cells


def _wrap(x: np.ndarray, L: float) -> None:
    """x % L in place, bit for bit, for x in [-L, 2 L) except -0.0: % gives
    x - L for x >= L, exact by Sterbenz, and x + L for x < 0, which may
    round to L, so the x >= L shift goes first."""
    x[x >= L] -= L
    x[x < 0] += L


def _add_poisson(ens: ParticleEnsemble, grid: FieldGrid, weights: np.ndarray, mean: float,
                 species: int, rng) -> None:
    """Append Poisson(mean) particles of `species` to each replica, i.i.d. with
    density the multilinear interpolant of the cell weights (O(dx^2) for smooth
    densities): poisson counts, a categorical cell, then triangular jitter.
    `weights` are normalized here, and _draw_cells builds its cdf from these
    p; a rescaled copy would move the cdf's last bits and so the cells.
    Grid points i h are gathered from FieldGrid.axes; with the jitter, in
    [-h, h), x is in [-h, L + h) and never -0.0 (i h >= +0.0), as _wrap needs."""
    counts = rng.poisson(mean, size=ens.nreplicas)
    count = int(counts.sum())
    flat = weights.ravel()
    tot = flat.sum()
    if tot <= 0 or count == 0:
        return
    cells = _draw_cells(rng, flat / tot, count)
    points = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1).reshape(-1, grid.dim)
    pos = points.take(cells, axis=0)
    for ax, (h, L) in enumerate(zip(grid.spacing, grid.box)):
        x = pos[:, ax]
        x += (rng.random(count) + rng.random(count) - 1.0) * h
        _wrap(x, L)
    ens.append(pos, np.full(count, species, dtype=np.int64),
               np.repeat(np.arange(ens.nreplicas), counts))


def sample_initial(spec: ModelSpec, rng, replicas: int = 1) -> ParticleEnsemble:
    """Poisson(integral v) particles per replica, i.i.d. with density v (vb:
    species 1); the ensemble draws its diffusion with the same `rng`."""
    g = spec.grid()
    empty = np.zeros(0, dtype=np.int64)
    ens = ParticleEnsemble(g.box, np.zeros((0, g.dim)), empty, empty, replicas, rng=rng)
    _add_poisson(ens, g, g.values * g.cell_volume, g.integral(), 0, rng)
    if spec.vb is not None:
        _add_poisson(ens, g, spec.vb.values * g.cell_volume, spec.vb.integral(), 1, rng)
    return ens


def _floor_cell(ens: ParticleEnsemble, shape) -> tuple:
    """Per axis, the index i of the floor cell [i h, (i + 1) h), h = box / n,
    holding each particle (wrapped, so >= 0); one on the box's far edge is
    in the last cell."""
    return tuple(np.minimum((ens.positions[:, ax] / (b / n)).astype(np.int64), n - 1)
                 for ax, (b, n) in enumerate(zip(ens.box, shape)))


def _event_prob(rate: Rate, ens: ParticleEnsemble, grid: FieldGrid, t: float, dt: float):
    """Probability 1 - exp(-integral of the rate over [t, t + dt]) that a
    particle's event fires within the step: per particle for a spatial
    table, else one scalar.  A particle at x reads the entry of the floor
    cell [i h, (i + 1) h) holding x, while _add_poisson centres grid point
    i's particles on i h, so a table that varies between cells is read half
    a cell off (the ROADMAP records the bias this leaves)."""
    hazard = rate.const * rate.temporal_integral(t, t + dt)
    if rate.table is None:
        return -math.expm1(-hazard)
    return -np.expm1(-hazard * np.asarray(rate.table, float)[_floor_cell(ens, grid.shape)])


def _check_prob(p, what: str) -> None:
    m = p if isinstance(p, float) else float(np.max(p, initial=0.0))
    if not m <= MAX_EVENT_PROB:  # NaN fails this test too
        raise StepTooLarge(
            f"{what} probability {m:.3g} exceeds {MAX_EVENT_PROB}; reduce dt"
        )


def _min_image(dx: np.ndarray, box) -> np.ndarray:
    for ax, L in enumerate(box):
        dx[..., ax] -= L * np.round(dx[..., ax] / L)
    return dx


def _candidate_pairs(ens: ParticleEnsemble, cutoff: float):
    """Index arrays (i, j) of every same-replica pair in the same or adjacent
    cells of a periodic cell grid at least `cutoff` wide, each pair once.

    Particles are sorted once by the key replica * ncells + cell.  Per axis
    the wrapped neighbour offsets are {0}, {0, 1} or {0, 1, n-1} for 1, 2 or
    more cells, so at most 3^d - 1 offsets remain; each names one neighbour
    cell per particle, kept where its key is above the particle's own, whose
    members are one searchsorted range.  Pairs come ordered by the key of i,
    then that of j (own cell first), then sorted position: the order the
    random draws follow."""
    ncell = [max(1, int(b // cutoff)) for b in ens.box]
    coords = _floor_cell(ens, ncell)
    base = ens.replica * math.prod(ncell)
    key = base + np.ravel_multi_index(coords, ncell)
    order = np.argsort(key, kind="stable")
    key, base = key[order], base[order]
    coords = [c[order] for c in coords]
    s = np.arange(len(key))
    starts, stops = [s + 1], [np.searchsorted(key, key, side="right")]
    for off in itertools.product(*[sorted({0, 1 % n, n - 1}) for n in ncell]):
        if not any(off):
            continue
        nb = base + np.ravel_multi_index(
            [(c + o) % n for c, o, n in zip(coords, off, ncell)], ncell)
        lo = np.searchsorted(key, nb, side="left")
        starts.append(lo)
        stops.append(np.where(nb > key, np.searchsorted(key, nb, side="right"), lo))
    start = np.concatenate(starts)
    count = np.concatenate(stops) - start
    a = np.repeat(np.tile(s, len(starts)), count)
    b = np.arange(len(a)) + np.repeat(start - (np.cumsum(count) - count), count)
    sel = np.lexsort((b, a, key[b], key[a]))
    return order[a[sel]], order[b[sel]]


def _pair(ens, grid, rate, t, sim, rng) -> None:
    """Pairwise A+A -> phi: each candidate pair dies with probability
    R(|p-q|) dt, R the sim config's kernel, drawn in pair order; the first
    live pair of a particle wins."""
    kernel, dt = sim.kernel, sim.dt
    _check_prob(kernel.peak * dt, "annihilation")
    pi, pj = _candidate_pairs(ens, kernel.cutoff)
    if len(pi) == 0:
        return
    dx = _min_image(ens.positions[pi] - ens.positions[pj], ens.box)
    hit = rng.random(len(pi)) < kernel(np.sqrt(np.sum(dx ** 2, axis=1))) * dt
    alive = np.ones(ens.n, dtype=bool)
    for a, b in zip(pi[hit], pj[hit]):
        if alive[a] and alive[b]:
            alive[a] = alive[b] = False
    ens.select(alive)


def _death(ens, grid, rate, t, sim, rng) -> None:
    """A scalar rate only accrues its hazard on the ensemble, drawn at the
    next read; a tabulated one reads positions and thins now."""
    if rate.table is None:
        h = rate.const * rate.temporal_integral(t, t + sim.dt)
        _check_prob(-math.expm1(-h), "death")
        ens.hazard += h
        return
    p = _event_prob(rate, ens, grid, t, sim.dt)
    _check_prob(p, "death")
    ens.select(rng.random(ens.n) >= p)


def _branching(ens, grid, rate, t, sim, rng) -> None:
    """Each particle leaves Geometric(1 - p) - 1 offspring at its place: the
    Yule law of one ancestor over the step."""
    p = _event_prob(rate, ens, grid, t, sim.dt)
    _check_prob(p, "branching")
    kids = np.repeat(np.arange(ens.n), rng.geometric(1.0 - p, size=ens.n) - 1)
    ens.append(ens.positions[kids], ens.species[kids], ens.replica[kids])


def _conversion(ens, grid, rate, t, sim, rng) -> None:
    """A -> B; B (species 1) does not react, so its cells do not bound dt."""
    p = np.where(ens.species == 0, _event_prob(rate, ens, grid, t, sim.dt), 0.0)
    _check_prob(p, "conversion")
    ens.species = np.where(rng.random(ens.n) < p, 1, ens.species)


def _step_births(rate, death, grid, t, dt, nrep):
    """Births per unit volume at each cell over [t, t + dt] that survive
    `death` to the step's end (models.births), and their expected number in
    one replica; SimError unless nrep replicas expect at most
    MAX_CHUNK_PARTICLES of them."""
    born = births(rate, death, grid.shape, t, t + dt)
    lam = float(born.sum() * grid.cell_volume)
    if not lam * nrep <= MAX_CHUNK_PARTICLES:
        raise SimError(f"about {lam * nrep:.3g} births expected in a step of one chunk "
                       f"exceed the cap of {MAX_CHUNK_PARTICLES:,}; reduce the rate, dt or chunk")
    return born, lam


def _immigration(ens, grid, rate, death, t, dt, rng) -> None:
    """Poisson births over [t, t + dt] that survive `death` to the step's
    end (a thinned Poisson process is Poisson), with mean models.births per
    unit volume at each cell."""
    born, lam = _step_births(rate, death, grid, t, dt, ens.nreplicas)
    if lam > 0:
        _add_poisson(ens, grid, born, lam, 0, rng)


_MOVES = {"death": _death, "branching": _branching, "conversion": _conversion, "pair": _pair}


def _event_rates(spec: ModelSpec) -> dict:
    """The rate of each of the model kind's reactions, by event, in table
    order; an optional rate the model leaves out is 0."""
    kind = KINDS[spec.kind]
    return {event: spec.rates.get(name, _ZERO) if name in kind.optional else spec.rate(name)
            for name, event in kind.reactions}


def step(ens: ParticleEnsemble, spec: ModelSpec, sim: SimConfig, rng) -> None:
    """Advance the ensemble by one time step dt (in place): diffusion (its
    variance accrued, drawn at the next read of positions), then the model
    kind's reactions in table order."""
    dt = sim.dt
    g = spec.grid()
    t = ens.time
    ens.pending += 2 * spec.D * dt
    rates = _event_rates(spec)
    for event, rate in rates.items():
        if event == "immigration":  # births within the step also face its death
            _immigration(ens, g, rate, rates.get("death", _ZERO), t, dt, rng)
        else:
            _MOVES[event](ens, g, rate, t, sim, rng)
    ens.time = t + dt


# ---------------------------------------------------------------------------
# Replica runs and estimators
# ---------------------------------------------------------------------------


def _chunk_stats(spec, sim, nsteps, u, chunk_index, nrep):
    """Tallies of one chunk after nsteps steps, each as (sum over the chunk's
    replicas, sum of squares): per-cell counts per species, N, N^2, void and,
    given u, the GF estimate prod_i u(x_i).  The estimators cost
    O(particles): one cell lookup, bincounts and one scatter-product.  A
    cell's square sum is the sum over its particles of their own (replica,
    cell) count, an exact integer in float while a chunk holds fewer than
    2^26 particles."""
    rng = np.random.default_rng(np.random.SeedSequence(sim.seed, spawn_key=(chunk_index,)))
    ens = sample_initial(spec, rng, nrep)
    for _ in range(nsteps):
        step(ens, spec, sim, rng)
    g = spec.grid()
    ncells = int(np.prod(g.shape))
    flat = np.ravel_multi_index(_floor_cell(ens, g.shape), g.shape)
    key = ens.replica * ncells + flat
    stats = {}
    converts = KINDS[spec.kind].converts  # else ModelSpec refuses vb: all species 0
    for s in (0, 1) if converts else (0,):
        sel = ens.species == s if converts else slice(None)  # a view, not a copy
        k, f = key[sel], flat[sel]
        c = np.bincount(k)[k]
        stats[f"counts{s}"] = (np.bincount(f, minlength=ncells),
                               np.bincount(f, c, minlength=ncells).astype(np.int64))
    n_per_rep = np.bincount(ens.replica, minlength=nrep)
    per_rep = {"N": n_per_rep,
               "N2": n_per_rep.astype(float) ** 2,  # its square, n^4, would wrap in int64
               "void": (n_per_rep == 0).astype(np.int64)}
    if u is not None:
        # multiplies in particle order, as np.prod over each replica would;
        # labels need not be sorted and an empty replica keeps gf = 1
        gf = np.ones(nrep)
        np.multiply.at(gf, ens.replica, u.values.ravel()[flat])
        per_rep["gf"] = gf
    for name, x in per_rep.items():
        stats[name] = (x.sum(), (x * x).sum())
    return stats


def _expected_particles(spec: ModelSpec, rates: dict, t_end: float) -> float:
    """A bound on one replica's expected particles over [0, t_end]:
    (n0 + B) e^L, with n0 the initial mass, B the births without death
    (models.births at a zero death rate) and L the largest branching hazard,
    max over the grid of the rate's integral over [0, t_end].  No kind both
    branches and immigrates, so this is n0 e^L + B; inf where it overflows."""
    g = spec.grid()
    branch = rates.get("branching", _ZERO)
    with np.errstate(over="ignore"):
        mass = g.integral() + (spec.vb.integral() if spec.vb is not None else 0.0)
        mass += float(births(rates.get("immigration", _ZERO), _ZERO, g.shape, 0.0, t_end).sum()
                      * g.cell_volume)
        hazard = float(np.max(branch.spatial(g.shape))) * branch.temporal_integral(0.0, t_end)
        return float(mass * np.exp(hazard)) if mass else 0.0


def run(
    spec: ModelSpec, sim: SimConfig, t_end: float, u: FieldGrid | None = None,
    threads: int = 1,
) -> EstimatorReport:
    """Replica-averaged estimators at t_end, a whole number of steps dt;
    deterministic for fixed (seed, config), whatever the number of worker
    threads running the chunks: `threads`, at most one per chunk and per
    CPU, so at most that many chunks hold their particles at once.  Unfit
    unless t_end is finite, >= 0 and a whole number of steps, to a relative
    1e-9; SimError past a work cap."""
    sim.check(spec)
    steps = t_end / sim.dt
    nsteps = round(steps) if math.isfinite(steps) and steps >= 0 else math.nan
    if not math.isclose(steps, nsteps, rel_tol=1e-9):
        raise Unfit(f"t_end (--t-end) {t_end} must be finite, >= 0 and a whole number "
                    f"of dt = {sim.dt} steps")
    g = spec.grid()
    rates = _event_rates(spec)
    nrep = min(sim.chunk, sim.replicas)
    if "immigration" in rates:  # too many births in one step: refused as step would, first
        _step_births(rates["immigration"], rates.get("death", _ZERO), g, 0.0, sim.dt, nrep)
    particles = _expected_particles(spec, rates, t_end)
    work = sim.replicas * nsteps * (1.0 + particles)
    if not work <= MAX_PARTICLE_STEPS:
        raise SimError(f"about {work:.3g} particle-steps exceed the cap of "
                       f"{MAX_PARTICLE_STEPS:.0e}; reduce replicas, t_end, the initial mass "
                       "or the rates, or split the replicas over runs with different seeds")
    held = nrep * particles
    if not held <= MAX_CHUNK_PARTICLES:
        raise SimError(f"about {held:.3g} particles expected in one chunk exceed the cap of "
                       f"{MAX_CHUNK_PARTICLES:,}; reduce the chunk, t_end, the initial mass "
                       "or the rates")
    nchunks = (sim.replicas + sim.chunk - 1) // sim.chunk

    def chunk(ci):
        return _chunk_stats(spec, sim, nsteps, u, ci, min(sim.chunk, sim.replicas - ci * sim.chunk))

    workers = min(threads, nchunks, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(chunk, range(nchunks)))
    else:
        results = [chunk(ci) for ci in range(nchunks)]
    R = sim.replicas
    dV = g.cell_volume
    fields = {}
    scalars = {}

    def reduce(key):
        """Mean and standard error over all replicas from the chunk sums,
        added in chunk order (a scalar tally gives floats, a cell tally
        arrays); the counts, N and void stay exact int64 sums until the
        division."""
        s = s2 = 0
        for res in results:
            s += res[key][0]
            s2 += res[key][1]
        mean = s / R
        se = np.sqrt(np.maximum(s2 / R - mean ** 2, 0.0) / max(R - 1, 1))
        return (float(mean), float(se)) if np.ndim(mean) == 0 else (mean, se)

    for s in (0, 1) if KINDS[spec.kind].converts else (0,):
        mean, se = reduce(f"counts{s}")
        name = "density" if s == 0 else "density_b"
        fields[name] = FieldGrid(g.box, (mean / dV).reshape(g.shape))
        fields[name + "_se"] = FieldGrid(g.box, (se / dV).reshape(g.shape))

    for key in ("N", "N2", "void"):
        scalars[key] = reduce(key)
    if u is not None:
        scalars["gf"] = reduce("gf")
    return EstimatorReport(fields=fields, scalars=scalars, replicas=R)
