"""Reference functions that the tests compare the package against.

No command runs these, so they live with the tests: the point-source heat
kernel, Stirling numbers of the second kind, the discrete-death generating
function, the free propagator, a normal-order predicate for operator terms,
the inverse transform of a momentum field, the full spectra of a perturb
momentum series, one Monte Carlo chunk's per-replica tallies, the particle
placement wrapped by the float remainder, the exact law of the well-mixed
A+A -> 0 particle number, and the per-row CSV writer that the package's
table writer must match byte for byte.
"""

import math

import numpy as np
from scipy.linalg import expm
from scipy.stats import poisson

from rdito.grid import FieldGrid, full_spectrum
from rdito.models import KINDS, ModelError, discrete_death_log_gf, image_sum
from rdito.perturb import MOMENTUM
from rdito.simulate import sample_initial, step


class DegenerateTime(ModelError):
    pass


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
        if box is None:
            s = math.exp(-x[ax] ** 2 / (4 * D * t))
        else:
            s = image_sum(x[ax], box[ax], 4 * D * t)
        out *= s / math.sqrt(4 * math.pi * D * t)
    return out


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


def discrete_death_gf(v: float, mu: float, t: float, u: float) -> float:
    return math.exp(discrete_death_log_gf(v, mu, t, u))


# Equal-time propagator value theta(0); isolated here as a convention.
THETA0 = 1.0


def propagator(k, t: float, s: float, D: float) -> float:
    """Free propagator theta(t-s) exp(-(t-s) D |k|^2); theta(0) = THETA0."""
    dt = t - s
    if dt < 0:
        return 0.0
    if dt == 0:
        return THETA0
    k = np.atleast_1d(np.asarray(k, float))
    return math.exp(-dt * D * float(k @ k))


def is_normal(t) -> bool:
    """Whether no annihilator of an OperatorTerm stands left of a creator of
    its species."""
    for i, x in enumerate(t.ops):
        if x.dagger:
            continue
        for y in t.ops[i + 1 :]:
            if y.dagger and y.species == x.species:
                return False
    return True


def to_position(grid, spectrum: np.ndarray) -> np.ndarray:
    """The position samples on `grid` (a FieldGrid) of a full spectrum: the
    inverse of FieldGrid.to_momentum."""
    return (np.fft.ifftn(spectrum) / grid.cell_volume).real


def full_values(series) -> np.ndarray:
    """The fields of a perturb TimeSeries on its whole grid, drawn from it:
    a momentum series holds half spectra, each completed here by
    X(-k) = conj X(k)."""
    if series.rep != MOMENTUM:
        return np.array(list(series.fields))
    return np.array([full_spectrum(x, series.shape[-1]) for x in series.fields])


def final_field(series) -> np.ndarray:
    """The last field of a perturb TimeSeries, drawn from it: the full
    spectrum of a momentum series, completed by X(-k) = conj X(k)."""
    for x in series.fields:
        pass
    return full_spectrum(x, series.shape[-1]) if series.rep == MOMENTUM else x


def replay_chunk(spec, sim, t_end: float, chunk_index: int, nrep: int):
    """The ensemble of chunk `chunk_index` of simulate.run at t_end: the same
    seed, initial sample and steps.  Its positions are read once here, which
    draws what the steps deferred, as the run's estimators do."""
    rng = np.random.default_rng(np.random.SeedSequence(sim.seed, spawn_key=(chunk_index,)))
    ens = sample_initial(spec, rng, nrep)
    for _ in range(int(round(t_end / sim.dt))):
        step(ens, spec, sim, rng)
    ens.positions
    return ens


def chunk_tallies(spec, sim, t_end: float, u, chunk_index: int, nrep: int) -> dict:
    """Per-replica tallies of one chunk of simulate.run, computed densely
    from its replayed ensemble: (nrep, cells) counts per species, N, N^2
    (float), void and, given u, the product of u over each replica's
    particles, one np.prod per replica."""
    ens = replay_chunk(spec, sim, t_end, chunk_index, nrep)
    g = spec.grid()
    cell = np.ravel_multi_index(
        [np.minimum((ens.positions[:, ax] / (b / n)).astype(np.int64), n - 1)
         for ax, (b, n) in enumerate(zip(g.box, g.shape))], g.shape)
    out = {}
    for s in (0, 1) if KINDS[spec.kind].converts else (0,):
        counts = np.zeros((nrep, g.values.size), np.int64)
        sel = ens.species == s
        np.add.at(counts, (ens.replica[sel], cell[sel]), 1)
        out[f"counts{s}"] = counts
    n = sum(c.sum(axis=1) for c in out.values())
    out.update(N=n, N2=n.astype(float) ** 2, void=(n == 0).astype(np.int64))
    if u is not None:
        uvals = u.values.ravel()[cell]
        out["gf"] = np.array([np.prod(uvals[ens.replica == r]) for r in range(nrep)])
    return out


def add_poisson_by_remainder(grid: FieldGrid, weights, mean: float, nreplicas: int, state):
    """The positions that simulate._add_poisson appends, drawn from a
    generator in bit_generator `state` with numpy's own choice and wrapped by
    the float remainder (i h + jitter) % L, as before its compare-and-shift
    wrap; also the generator, left where the draws leave it."""
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    counts = rng.poisson(mean, size=nreplicas)
    p = weights.ravel() / weights.sum()
    idx = np.unravel_index(rng.choice(p.size, int(counts.sum()), p=p), grid.shape)
    pos = np.empty((len(idx[0]), grid.dim))
    for ax in range(grid.dim):
        h = grid.spacing[ax]
        jitter = (rng.random(len(pos)) + rng.random(len(pos)) - 1.0) * h
        pos[:, ax] = (idx[ax] * h + jitter) % grid.box[ax]
    return pos, rng


def annihilation_chain_law(mean0: float, c: float, t: float, tail: float = 1e-15) -> np.ndarray:
    """P(N(t) = n) for n = 0, 1, ... of well-mixed A + A -> 0: the pure-death
    chain n -> n - 2 at rate c n (n - 1) / 2 from a Poisson(mean0) start.

    The chain only moves down, so truncating the start where its Poisson tail
    is below `tail` truncates nothing else; the generator of the truncated
    chain is exponentiated by scipy (Doi, J. Phys. A 9, 1465, 1976; the chain
    Gillespie's algorithm samples exactly, J. Comput. Phys. 22, 403, 1976)."""
    top = int(poisson.isf(tail, mean0)) + 1
    n = np.arange(top + 1)
    rate = c * n * (n - 1) / 2.0
    Q = np.diag(-rate)
    Q[n[2:], n[2:] - 2] = rate[2:]
    return poisson.pmf(n, mean0) @ expm(Q * t)


def table_rows(lead: str, labels: list[str], values: np.ndarray) -> list[str]:
    """CSV rows `lead,label,value` for values in C order, one per label, each
    value written with repr: the per-row f-string writer that grid.table_block
    replaced, kept as the reference for its bytes."""
    values = np.ravel(values).tolist()
    return [f"{lead},{lab},{v!r}" for lab, v in zip(labels, values, strict=True)]
