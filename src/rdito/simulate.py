"""Particle-based Monte Carlo for the local models and A+A -> phi.

Independent replicas of an interacting particle system on the torus:
Gaussian diffusion steps, unary reactions by thinning against rate * dt,
spontaneous births from an intensity field, and pairwise annihilation with a
radial kernel.  Replicas are batched into chunks; each chunk owns an rng
seeded from (seed, chunk index), so results are independent of the thread
schedule and bit-identical across runs.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .grid import FieldGrid, POSITION, point_labels, table_rows
from .models import ModelSpec, Rate, as_int

MAX_EVENT_PROB = 0.1


class SimError(Exception):
    pass


class StepTooLarge(SimError):
    pass


@dataclass(frozen=True)
class RadialKernel:
    """Radial reaction kernel R(r), sampled on [0, cutoff]."""

    cutoff: float
    samples: tuple[float, ...]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        xs = np.linspace(0.0, self.cutoff, len(self.samples))
        return np.where(
            r <= self.cutoff, np.interp(r, xs, np.asarray(self.samples)), 0.0
        )

    @property
    def peak(self) -> float:
        return float(np.max(self.samples))

    def integral(self, d: int) -> float:
        """Integral of R over R^d (d = 1: both sides)."""
        xs = np.linspace(0.0, self.cutoff, len(self.samples))
        vals = np.asarray(self.samples, float)
        if d == 1:
            return 2.0 * float(np.trapezoid(vals, xs))
        if d == 2:
            return float(np.trapezoid(2 * np.pi * xs * vals, xs))
        if d == 3:
            return float(np.trapezoid(4 * np.pi * xs ** 2 * vals, xs))
        raise SimError(f"kernel integral unsupported for d={d}")


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
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise SimError(f"unknown keys {unknown}")
        kern = None
        if "kernel" in obj:
            kern = RadialKernel(
                cutoff=float(obj["kernel"]["cutoff"]),
                samples=tuple(float(x) for x in obj["kernel"]["samples"]),
            )
        return cls(
            dt=float(obj["dt"]),
            replicas=as_int(obj["replicas"], "replicas"),
            seed=as_int(obj["seed"], "seed"),
            kernel=kern,
            chunk=as_int(obj.get("chunk", 256), "chunk"),
        )

    def check_box(self, box) -> None:
        """SimError unless the kernel cutoff lies in (0, min(box)/2]; beyond
        half the box the minimum-image distance of a pair is ambiguous."""
        half = min(box) / 2
        if self.kernel is not None and not 0 < self.kernel.cutoff <= half:
            raise SimError(
                f"kernel cutoff must be > 0 and <= min(box)/2 = {half}, got {self.kernel.cutoff}"
            )


@dataclass
class ParticleEnsemble:
    """Batched particle state across a chunk of replicas."""

    box: tuple[float, ...]
    positions: np.ndarray  # (n, d)
    species: np.ndarray  # (n,)
    replica: np.ndarray  # (n,)
    nreplicas: int
    time: float = 0.0

    @property
    def n(self) -> int:
        return len(self.positions)

    def select(self, keep: np.ndarray) -> None:
        idx = np.flatnonzero(keep)
        self.positions = self.positions.take(idx, axis=0)
        self.species = self.species.take(idx)
        self.replica = self.replica.take(idx)

    def append(self, positions, species, replica) -> None:
        self.positions = np.concatenate([self.positions, positions])
        self.species = np.concatenate([self.species, species])
        self.replica = np.concatenate([self.replica, replica])


@dataclass(frozen=True)
class EstimatorReport:
    fields: dict  # name -> FieldGrid (mean and se per species)
    scalars: dict  # name -> (mean, standard error)
    replicas: int

    @property
    def mean_field(self) -> FieldGrid:
        return self.fields["density"]

    @property
    def se_field(self) -> FieldGrid:
        return self.fields["density_se"]

    def scalars_json(self) -> str:
        obj = {
            "replicas": self.replicas,
            "scalars": {k: [v[0], v[1]] for k, v in sorted(self.scalars.items())},
        }
        return json.dumps(obj, indent=2, sort_keys=True)

    def grid_csv(self) -> str:
        lines = ["name,index,value"]
        for name in sorted(self.fields):
            fg = self.fields[name]
            labels = point_labels([np.arange(n) for n in fg.shape], ":")
            lines += table_rows(name, labels, fg.values)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Sampling and stepping
# ---------------------------------------------------------------------------


def _add_poisson(ens: ParticleEnsemble, grid: FieldGrid, weights: np.ndarray, mean: float,
                 species: int, rng) -> None:
    """Append Poisson(mean) particles of `species` to each replica, i.i.d. with
    density the multilinear interpolant of the cell weights (O(dx^2) for smooth
    densities): poisson counts, a categorical cell, then triangular jitter.
    `weights` are normalized here; a rescaled copy would move choice's p."""
    counts = rng.poisson(mean, size=ens.nreplicas)
    count = int(counts.sum())
    flat = weights.ravel()
    tot = flat.sum()
    if tot <= 0 or count == 0:
        return
    cells = rng.choice(len(flat), size=count, p=flat / tot)
    idx = np.unravel_index(cells, grid.shape)
    pos = np.empty((count, grid.dim))
    for ax in range(grid.dim):
        h = grid.spacing[ax]
        jitter = (rng.random(count) + rng.random(count) - 1.0) * h
        pos[:, ax] = (idx[ax] * h + jitter) % grid.box[ax]
    ens.append(pos, np.full(count, species, dtype=np.int64),
               np.repeat(np.arange(ens.nreplicas), counts))


def sample_initial(spec: ModelSpec, rng, replicas: int = 1) -> ParticleEnsemble:
    """Poisson(integral v) particles per replica, i.i.d. with density v (vb: species 1)."""
    g = spec.grid()
    empty = np.zeros(0, dtype=np.int64)
    ens = ParticleEnsemble(g.box, np.zeros((0, g.dim)), empty, empty, replicas)
    _add_poisson(ens, g, g.values * g.cell_volume, g.integral(), 0, rng)
    if spec.vb is not None:
        _add_poisson(ens, g, spec.vb.values * g.cell_volume, spec.vb.integral(), 1, rng)
    return ens


def _cell_index(ens: ParticleEnsemble, grid: FieldGrid):
    return tuple(
        np.clip((ens.positions[:, ax] / h).astype(np.int64), 0, n - 1)
        for ax, (h, n) in enumerate(zip(grid.spacing, grid.shape))
    )


def _rate_at(rate: Rate, ens: ParticleEnsemble, grid: FieldGrid, t: float):
    """Per-particle rate value (nearest-cell lookup for spatial tables)."""
    base = rate.const * rate.temporal(t)
    if rate.table is None:
        return np.full(ens.n, base)
    tab = np.asarray(rate.table, float)
    return base * tab[_cell_index(ens, grid)]


def _check_prob(p, what: str) -> None:
    m = float(np.max(p)) if np.size(p) else 0.0
    if not m <= MAX_EVENT_PROB:  # NaN fails this test too
        raise StepTooLarge(
            f"{what} probability {m:.3g} exceeds {MAX_EVENT_PROB}; reduce dt"
        )


def _min_image(dx: np.ndarray, box) -> np.ndarray:
    for ax, L in enumerate(box):
        dx[..., ax] -= L * np.round(dx[..., ax] / L)
    return dx


def _annihilation_step(ens: ParticleEnsemble, kernel: RadialKernel, dt, rng) -> None:
    """Pairwise A+A -> phi: each unordered pair within the cutoff dies with
    probability R(|p-q|) dt; cell lists keyed by (replica, cell)."""
    _check_prob(kernel.peak * dt, "annihilation")
    if ens.n == 0:
        return
    box = ens.box
    d = len(box)
    ncell = [max(1, int(b // max(kernel.cutoff, 1e-12))) for b in box]
    cell = np.zeros(ens.n, dtype=np.int64)
    for ax in range(d):
        c = np.minimum(
            (ens.positions[:, ax] / (box[ax] / ncell[ax])).astype(np.int64),
            ncell[ax] - 1,
        )
        cell = cell * ncell[ax] + c
    key = ens.replica * int(np.prod(ncell)) + cell
    order = np.argsort(key, kind="stable")
    alive = np.ones(ens.n, dtype=bool)
    # gather candidate pairs: same replica, same or neighboring cell
    pos = ens.positions
    pairs_i, pairs_j = [], []
    # map (replica, cell-coords) -> member indices
    members = defaultdict(list)
    coords = np.zeros((ens.n, d), dtype=np.int64)
    rem = cell.copy()
    for ax in reversed(range(d)):
        coords[:, ax] = rem % ncell[ax]
        rem //= ncell[ax]
    for i in order:
        members[(int(ens.replica[i]), tuple(int(c) for c in coords[i]))].append(int(i))
    offsets = np.array(np.meshgrid(*[[-1, 0, 1]] * d, indexing="ij")).reshape(d, -1).T
    for (rep, cc), mem in members.items():
        # pairs within the cell
        for a in range(len(mem)):
            for b in range(a + 1, len(mem)):
                pairs_i.append(mem[a])
                pairs_j.append(mem[b])
        # pairs with lexicographically greater neighbor cells (wrapping can
        # alias offsets onto the same cell, so dedupe first)
        nbs = {
            tuple((cc[ax] + int(off[ax])) % ncell[ax] for ax in range(d))
            for off in offsets
            if np.any(off)
        }
        for nb in sorted(nbs):
            if nb <= cc:
                continue
            other = members.get((rep, nb))
            if not other:
                continue
            for a in mem:
                for b in other:
                    pairs_i.append(a)
                    pairs_j.append(b)
    if not pairs_i:
        return
    pi = np.asarray(pairs_i)
    pj = np.asarray(pairs_j)
    dx = _min_image(pos[pi] - pos[pj], box)
    r = np.sqrt(np.sum(dx ** 2, axis=1))
    prob = kernel(r) * dt
    hit = rng.random(len(pi)) < prob
    for a, b in zip(pi[hit], pj[hit]):
        if alive[a] and alive[b]:
            alive[a] = alive[b] = False
    ens.select(alive)


def step(ens: ParticleEnsemble, spec: ModelSpec, sim: SimConfig, rng) -> None:
    """Advance the ensemble by one time step dt (in place)."""
    dt = sim.dt
    g = spec.grid()
    t = ens.time
    kind = spec.kind
    # diffusion
    if spec.D > 0 and ens.n:
        pos = ens.positions + rng.normal(
            0.0, math.sqrt(2 * spec.D * dt), size=ens.positions.shape
        )
        box = np.asarray(ens.box)
        pos -= box * np.floor(pos / box)
        ens.positions = pos
    if kind == "DeathDiffusion":
        p = _rate_at(spec.rate("mu"), ens, g, t) * dt
        _check_prob(p, "death")
        ens.select(rng.random(ens.n) >= p)
    elif kind == "BrownianTree":
        p = _rate_at(spec.rate("mu"), ens, g, t) * dt
        _check_prob(p, "birth")
        born = rng.random(ens.n) < p
        ens.append(ens.positions[born], ens.species[born], ens.replica[born])
    elif kind == "ConvertAB":
        isa = ens.species == 0
        p = _rate_at(spec.rate("mu"), ens, g, t) * dt
        _check_prob(p[isa] if np.any(isa) else 0.0, "conversion")
        flip = isa & (rng.random(ens.n) < p)
        ens.species = np.where(flip, 1, ens.species)
    elif kind in ("SpontBirth", "BirthDeathTimeDep"):
        if kind == "BirthDeathTimeDep" and "nu" in spec.rates:
            p = _rate_at(spec.rates["nu"], ens, g, t) * dt
            _check_prob(p, "death")
            ens.select(rng.random(ens.n) >= p)
        mu = spec.rates.get("mu")
        if mu is not None:
            profile = np.broadcast_to(mu.spatial(g.shape), g.shape)
            lam = float(np.sum(profile) * g.cell_volume) * mu.temporal(t) * dt
            if lam > 0:
                _add_poisson(ens, g, profile, lam, 0, rng)
    elif kind == "Annihilation":
        if sim.kernel is None:
            raise SimError("Annihilation model needs a SimConfig kernel")
        _annihilation_step(ens, sim.kernel, dt, rng)
    ens.time = t + dt


# ---------------------------------------------------------------------------
# Replica runs and estimators
# ---------------------------------------------------------------------------


def _chunk_stats(spec, sim, t_end, u, chunk_index, nrep):
    """Per-replica tallies of one chunk at t_end: cell counts per species, N,
    N^2, void and, given u, the GF estimate prod_i u(x_i).  The estimators
    cost O(particles): one cell lookup, bincounts and one scatter-product."""
    rng = np.random.default_rng(np.random.SeedSequence(sim.seed, spawn_key=(chunk_index,)))
    ens = sample_initial(spec, rng, nrep)
    nsteps = int(round(t_end / sim.dt))
    for _ in range(nsteps):
        step(ens, spec, sim, rng)
    g = spec.grid()
    ncells = int(np.prod(g.shape))
    flat = np.ravel_multi_index(_cell_index(ens, g), g.shape)
    key = ens.replica * ncells + flat
    stats = {}
    for s in (0, 1):
        sel = ens.species == s
        if s == 1 and not np.any(sel) and spec.kind != "ConvertAB":
            continue
        stats[f"counts{s}"] = np.bincount(key[sel], minlength=nrep * ncells).reshape(nrep, ncells)
    n_per_rep = np.bincount(ens.replica, minlength=nrep)
    stats["N"] = n_per_rep.astype(float)
    stats["N2"] = n_per_rep.astype(float) ** 2
    stats["void"] = (n_per_rep == 0).astype(float)
    if u is not None:
        # multiplies in particle order, as np.prod over each replica would;
        # labels need not be sorted and an empty replica keeps gf = 1
        gf = np.ones(nrep)
        np.multiply.at(gf, ens.replica, u.values.ravel()[flat])
        stats["gf"] = gf
    return stats


def run(
    spec: ModelSpec, sim: SimConfig, t_end: float, u: FieldGrid | None = None,
    threads: int = 1,
) -> EstimatorReport:
    """Replica-averaged estimators; deterministic for fixed (seed, config),
    whatever the number of worker threads running the chunks."""
    g = spec.grid()
    sim.check_box(g.box)
    nchunks = (sim.replicas + sim.chunk - 1) // sim.chunk

    def chunk(ci):
        # reduced here, in the worker, so only per-cell sums outlive a chunk
        size = min(sim.chunk, sim.replicas - ci * sim.chunk)
        sums = {}
        for key, x in _chunk_stats(spec, sim, t_end, u, ci, size).items():
            x = x.astype(float)
            sums[key] = (x.sum(axis=0), (x ** 2).sum(axis=0))
        return sums

    if threads > 1 and nchunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(chunk, range(nchunks)))
    else:
        results = [chunk(ci) for ci in range(nchunks)]
    R = sim.replicas
    dV = g.cell_volume
    fields = {}
    scalars = {}

    def reduce(key):
        """Mean and standard error over all replicas from the chunk sums,
        added in chunk order (a scalar tally gives floats, a cell tally arrays)."""
        s = s2 = 0.0
        for res in results:
            if key in res:
                s += res[key][0]
                s2 += res[key][1]
        mean = s / R
        se = np.sqrt(np.maximum(s2 / R - mean ** 2, 0.0) / max(R - 1, 1))
        return (float(mean), float(se)) if np.ndim(mean) == 0 else (mean, se)

    for s in (0, 1):
        if not any(f"counts{s}" in res for res in results):
            continue
        mean, se = reduce(f"counts{s}")
        name = "density" if s == 0 else "density_b"
        fields[name] = FieldGrid(g.box, (mean / dV).reshape(g.shape), POSITION)
        fields[name + "_se"] = FieldGrid(g.box, (se / dV).reshape(g.shape), POSITION)

    for key in ("N", "N2", "void"):
        scalars[key] = reduce(key)
    if u is not None:
        scalars["gf"] = reduce("gf")
    return EstimatorReport(fields=fields, scalars=scalars, replicas=R)
