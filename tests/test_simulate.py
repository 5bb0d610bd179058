"""Tests for the particle Monte Carlo against exact statistical oracles."""

import hashlib
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from rdito.grid import FieldGrid
from rdito.models import (
    ModelSpec,
    Rate,
    birth_death_timedep_density,
    density,
    brownian_tree_density,
    brownian_tree_log_gf,
    convert_ab_densities,
    death_diffusion_density,
    death_diffusion_log_gf,
    wrapped_gaussian,
)
from rdito.simulate import (
    EstimatorReport,
    ParticleEnsemble,
    RadialKernel,
    SimConfig,
    SimError,
    StepTooLarge,
    Unfit,
    _candidate_pairs,
    MAX_EVENT_PROB,
    _add_poisson,
    _check_prob,
    _chunk_stats,
    _draw_cells,
    _event_rates,
    _expected_particles,
    _wrap,
    run,
    sample_initial,
    step,
)
from oracles import add_poisson_by_remainder, annihilation_chain_law, chunk_tallies, replay_chunk

L, N = 10.0, 64


def make_grid(values=None):
    g = FieldGrid((L,), np.zeros(N))
    return g if values is None else g.with_values(values)


def gauss_spec(kind="DeathDiffusion", mu=1.0, D=1.0, mass=20.0, rates=None):
    g = make_grid()
    v = g.with_values(wrapped_gaussian(g, mass, 1.0, L / 2))
    return ModelSpec(kind, (L,), D, rates or {"mu": Rate(const=mu)}, v)


def cell_averaged(kind, t, refine=4, **kw):
    """Analytic density block-averaged over estimator cells (the histogram
    estimates cell averages, not midpoint values)."""
    fine = FieldGrid((L,), np.zeros(N * refine))
    mass = kw.get("mass", 20.0)
    vf = fine.with_values(wrapped_gaussian(fine, mass, 1.0, L / 2))
    spec = ModelSpec(kind, (L,), kw.get("D", 1.0),
                     {"mu": Rate(const=kw.get("mu", 1.0))}, vf)
    if kind == "DeathDiffusion":
        dens = death_diffusion_density(spec, t)
    else:
        dens = brownian_tree_density(spec, t)
    return dens.values.reshape(N, refine).mean(axis=1)


def zscores(report, ref_values, t_ignored=None):
    """z per cell with an SE floor from the analytic Poisson prediction."""
    dV = report.fields["density"].cell_volume
    pred_se = np.sqrt(np.maximum(ref_values, 0) * dV / report.replicas) / dV
    se = np.maximum(report.fields["density_se"].values, pred_se)
    return (report.fields["density"].values - ref_values) / np.maximum(se, 1e-300)


class TestSampleInitial:
    def test_empty_for_zero_intensity(self):
        spec = ModelSpec("DeathDiffusion", (L,), 1.0, {"mu": Rate(const=1.0)},
                         make_grid(np.zeros(N)))
        rng = np.random.default_rng(0)
        ens = sample_initial(spec, rng, replicas=50)
        assert ens.n == 0

    def test_poisson_counts_chisquare(self):
        spec = ModelSpec("DeathDiffusion", (L,), 1.0, {"mu": Rate(const=1.0)},
                         make_grid(np.full(N, 0.8)))
        lam = 0.8 * L
        rng = np.random.default_rng(21)
        counts = np.array([sample_initial(spec, rng).n for _ in range(10_000)])
        kmax = int(stats.poisson.ppf(0.9999, lam)) + 1
        obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        exp = np.append(stats.poisson.pmf(np.arange(kmax), lam),
                        1 - stats.poisson.cdf(kmax - 1, lam))
        keep = exp * len(counts) > 5
        exp_k = exp[keep] / exp[keep].sum() * obs[keep].sum()
        chi2, p = stats.chisquare(obs[keep], exp_k)
        assert p > 0.01

    def test_gaussian_positions_ks(self):
        spec = gauss_spec(mass=10_000.0)
        rng = np.random.default_rng(2)
        ens = sample_initial(spec, rng)
        xs = ens.positions[:, 0]
        res = stats.kstest(xs, lambda x: stats.norm.cdf(x, L / 2, 1.0))
        assert res.pvalue > 0.01


def _tiny_next_to_zeros(n):
    w = np.zeros(n)
    w[::2] = 1.0
    w[n // 2] = 1e-300
    return w


def _zero_runs(n):
    w = np.random.default_rng(4).random(n) ** 8
    w[np.arange(n) % 7 < 4] = 0.0
    w[-1] = 1.0
    return w


def _dominant(n):
    w = np.full(n, 1e-6)
    w[n // 3] = 1.0
    return w


CELL_WEIGHTS = {
    "gaussian": lambda n: np.exp(-0.5 * ((np.arange(n) - n / 2) / max(n / 8, 1)) ** 2),
    "uniform": np.ones,
    "random-pow8": lambda n: np.random.default_rng(3).random(n) ** 8 + (n == 1),
    "zero-runs": _zero_runs,
    "tiny-next-to-zeros": _tiny_next_to_zeros,
    "dominant": _dominant,
}


class TestDrawCells:
    @pytest.mark.parametrize("size", [0, 1, 100_000])
    @pytest.mark.parametrize("n", [1, 3, 16_384])
    @pytest.mark.parametrize("weights", CELL_WEIGHTS)
    def test_equals_choice_value_for_value(self, weights, n, size):
        """The cells of rng.choice(n, size, p=p), and the rng left where
        choice leaves it."""
        w = CELL_WEIGHTS[weights](n)
        p = w / w.sum()
        ref, rng = np.random.default_rng(17), np.random.default_rng(17)
        want = ref.choice(n, size=size, p=p)
        got = _draw_cells(rng, p, size)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.random() == ref.random()

    def test_uniforms_on_bucket_edges_and_cdf_steps(self):
        """Every uniform on a table edge j/M, on a cdf step or one ulp either
        side of one is the cdf search's cell.  Two steps lie on edges (0.25
        and the 0.5 of a zero-weight cell), one inside a bucket (0.6)."""
        p = np.array([0.25, 0.25, 0.0, 0.1, 0.4])
        cdf = p.cumsum() / p.sum()
        m = 128  # the table size for 2,000 draws on 5 cells
        steps = cdf[:-1]
        u = np.concatenate([np.arange(m) / m, steps, np.nextafter(steps, 0.0),
                            np.nextafter(steps, 1.0), [np.nextafter(1.0, 0.0)]])
        u = np.resize(u, 2000)

        class Fixed:
            def random(self, size):
                assert size == len(u)
                return u.copy()

        got = _draw_cells(Fixed(), p, len(u))
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [np.inf, 1.0], [0.0, 0.0],
                                   [1.5, -0.5]])
    def test_refuses_weights_that_choice_refuses(self, p):
        with pytest.raises(SimError, match="cell weights"):
            _draw_cells(np.random.default_rng(0), np.array(p), 10)


class TestPlacement:
    """_add_poisson's grid points, jitter and compare-and-shift wrap against
    the float remainder it replaced."""

    # n (L / n) != L in floating point on each of these axes
    @pytest.mark.parametrize("box, shape", [
        ((0.3,), (37,)), ((10.0,), (77,)), ((0.3, 10.0), (37, 77)),
        ((10.0, 0.3, 1.0), (77, 37, 49)),
    ], ids=["0.3/37", "10/77", "2d", "3d"])
    def test_positions_equal_the_remainder_bit_for_bit(self, box, shape):
        assert all(n * (b / n) != b for b, n in zip(box, shape))
        g = FieldGrid(box, np.zeros(shape))
        edge = sum(np.isin(i, (0, n - 1)) for i, n in zip(np.indices(shape), shape))
        weights = (1 + 20 * edge) * np.random.default_rng(3).random(shape)
        rng = np.random.default_rng(5)
        want, ref = add_poisson_by_remainder(g, weights, 100.0, 200, rng.bit_generator.state)
        empty = np.zeros(0, dtype=np.int64)
        ens = ParticleEnsemble(box, np.zeros((0, g.dim)), empty, empty, 200, rng=rng)
        _add_poisson(ens, g, weights, 100.0, 0, rng)
        assert ens.positions.tobytes() == want.tobytes()
        assert rng.random() == ref.random()
        for ax, (b, n) in enumerate(zip(box, shape)):  # both sides wrapped
            x = want[:, ax]
            assert np.any(x > b - b / (2 * n)) and np.any(x < b / (2 * n))

    @pytest.mark.parametrize("L", [10.0, 0.3])
    def test_wrap_on_the_edges(self, L):
        """-1e-17 and the least subnormal below 0 go to L + x, which rounds
        to L, as under %; L goes to 0 and the next float above L to an ulp."""
        x = np.array([-5e-324, -1e-17, L, np.nextafter(L, np.inf), -L, 0.0, L / 2])
        want = x % L
        _wrap(x, L)
        assert x.tobytes() == want.tobytes()
        assert x[0] == x[1] == L

    @pytest.mark.parametrize("pending, hazard", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)])
    def test_append_to_an_empty_ensemble(self, pending, hazard):
        """Newborns take no diffusion or death deferred before their birth,
        and into an empty ensemble with none deferred the arrays are taken."""
        empty = np.zeros(0, dtype=np.int64)
        ens = ParticleEnsemble((L,), np.zeros((0, 1)), empty, empty, 2,
                               rng=np.random.default_rng(1), pending=pending, hazard=hazard)
        pos = np.linspace(0.0, 9.0, 1000)[:, None]
        ens.append(pos, np.zeros(1000, dtype=np.int64), np.repeat([0, 1], 500))
        assert ens.pending == ens.hazard == 0.0
        assert (ens.positions is pos) == (pending == hazard == 0.0)
        assert np.array_equal(ens.positions, np.linspace(0.0, 9.0, 1000)[:, None])
        assert ens.n == 1000


class TestStep:
    def test_static_no_reactions_unchanged(self):
        spec = gauss_spec(mu=0.0, D=0.0)
        rng = np.random.default_rng(3)
        ens = sample_initial(spec, rng)
        pos = ens.positions.copy()
        step(ens, spec, SimConfig(dt=0.01, replicas=1, seed=0), rng)
        assert np.array_equal(ens.positions, pos)

    def test_pure_death_survival(self):
        mu, t, dt = 1.3, 0.5, 0.005
        spec = ModelSpec("DeathDiffusion", (L,), 0.0, {"mu": Rate(const=mu)},
                         make_grid(np.full(N, 100_000 / L)))
        rng = np.random.default_rng(4)
        ens = sample_initial(spec, rng)
        n0 = ens.n
        sim = SimConfig(dt=dt, replicas=1, seed=0)
        for _ in range(int(round(t / dt))):
            step(ens, spec, sim, rng)
        # each step keeps a particle with probability e^{-mu dt} exactly
        p = math.exp(-mu * t)
        assert abs(ens.n - n0 * p) < 3 * math.sqrt(n0 * p * (1 - p))

    @pytest.mark.parametrize("kind, rate", [
        ("DeathDiffusion", Rate(const=1.0)),
        ("BrownianTree", Rate(const=1.0)),
        ("SpontBirth", Rate(const=4.0, time="sin2")),
        ("BirthDeathTimeDep", {"nu": Rate(const=1.0), "mu": Rate(const=4.0)}),
    ])
    def test_unary_steps_are_exact_in_time(self, kind, rate):
        """Mean N after 10 steps of mu dt = 0.05 (D = 0, 1e5 replicas) equals
        the closed form.  Thinning with p = mu dt reads (0.95)^10 = 0.599 for
        e^{-0.5} = 0.607, about 15 SE low; a Bernoulli birth reads 1.05^10 for
        e^{0.5}; a sin^2 rate taken at the left end of each step misses about
        a tenth of the births.  `rate` is mu, or every rate of the kind."""
        rates = rate if isinstance(rate, dict) else {"mu": rate}
        spec = ModelSpec(kind, (L,), 0.0, rates, make_grid(np.full(N, 20.0 / L)))
        t = 0.5
        rep = run(spec, SimConfig(dt=0.05, replicas=100_000, seed=41, chunk=4096), t)
        mean, se = rep.scalars["N"]
        assert abs(mean - density(spec, t).integral()) < 4 * se

    def test_pure_diffusion_msd(self):
        D, dt, steps = 0.5, 0.01, 20
        spec = ModelSpec("DeathDiffusion", (L,), D, {"mu": Rate(const=0.0)},
                         make_grid(np.full(N, 50_000 / L)))
        rng = np.random.default_rng(5)
        ens = sample_initial(spec, rng)
        start = ens.positions.copy()
        sim = SimConfig(dt=dt, replicas=1, seed=0)
        for _ in range(steps):
            step(ens, spec, sim, rng)
        dx = ens.positions - start
        dx -= L * np.round(dx / L)
        msd = float(np.mean(dx ** 2))
        t = dt * steps
        expect = 2 * D * t
        se = float(np.std(dx ** 2, ddof=1) / math.sqrt(ens.n))
        assert abs(msd - expect) < 3 * se

    def test_step_too_large(self):
        spec = gauss_spec(mu=50.0)
        rng = np.random.default_rng(6)
        ens = sample_initial(spec, rng)
        with pytest.raises(StepTooLarge):
            step(ens, spec, SimConfig(dt=0.01, replicas=1, seed=0), rng)

    def test_nan_probability_is_too_large(self):
        with pytest.raises(StepTooLarge):
            _check_prob(np.array([0.01, math.nan]), "death")

    @pytest.mark.parametrize("p", [math.nan, math.inf, np.nextafter(MAX_EVENT_PROB, 1)])
    def test_scalar_probability_too_large(self, p):
        with pytest.raises(StepTooLarge):
            _check_prob(p, "death")

    def test_scalar_probability_at_the_bound_passes(self):
        _check_prob(MAX_EVENT_PROB, "death")
        _check_prob(0.0, "death")

    def test_wrap_after_steps_longer_than_the_box(self):
        """A diffusion step of several box lengths still lands on the torus
        (a one-image wrap such as x + L where x < 0 would leave the box)."""
        box = (10.0, 4.0)
        v = FieldGrid(box, np.full((16, 8), 50.0))
        D, dt = 20000.0, 0.01
        # a tabulated mu reads positions first, so the step's first draw is the noise
        spec = ModelSpec("DeathDiffusion", box, D,
                         {"mu": Rate(const=1e-6, table=tuple(map(tuple, np.ones((16, 8)))))}, v)
        rng = np.random.default_rng(11)
        ens = sample_initial(spec, rng)
        shadow = np.random.default_rng()
        shadow.bit_generator.state = rng.bit_generator.state
        noise = shadow.normal(0.0, math.sqrt(2 * D * dt), size=ens.positions.shape)
        assert np.mean(np.abs(noise) > np.asarray(box)) > 0.5
        start = ens.positions.copy()
        step(ens, spec, SimConfig(dt=dt, replicas=1, seed=0), rng)
        assert np.allclose(ens.positions, (start + noise) % np.asarray(box))
        assert ens.n > 0
        assert np.all(ens.positions >= 0.0) and np.all(ens.positions <= np.asarray(box))


class TestDeferredDiffusion:
    """A step accrues its diffusion variance; the first read of positions
    draws it (see ParticleEnsemble)."""

    def spec(self, D=0.5):
        return ModelSpec("DeathDiffusion", (L,), D, {"mu": Rate(const=0.0)},
                         make_grid(np.full(N, 50_000 / L)))

    def test_a_second_read_draws_nothing(self):
        spec = self.spec()
        rng = np.random.default_rng(17)
        ens = sample_initial(spec, rng)
        for _ in range(3):
            step(ens, spec, SimConfig(dt=0.01, replicas=1, seed=0), rng)
        before = rng.bit_generator.state
        first = ens.positions.copy()
        drawn = rng.bit_generator.state
        assert drawn != before
        assert np.array_equal(ens.positions, first)
        assert rng.bit_generator.state == drawn

    @pytest.mark.parametrize("read_every_step", [True, False])
    def test_msd_does_not_depend_on_when_positions_are_read(self, read_every_step):
        D, dt, steps = 0.5, 0.01, 20
        spec = self.spec(D)
        rng = np.random.default_rng(19)
        ens = sample_initial(spec, rng)
        start = ens.positions.copy()
        sim = SimConfig(dt=dt, replicas=1, seed=0)
        for _ in range(steps):
            step(ens, spec, sim, rng)
            if read_every_step:
                assert ens.positions.shape == start.shape
        dx = ens.positions - start
        dx -= L * np.round(dx / L)
        se = float(np.std(dx ** 2, ddof=1) / math.sqrt(ens.n))
        assert abs(float(np.mean(dx ** 2)) - 2 * D * dt * steps) < 3 * se


class TestDeferredDeath:
    """A death at a scalar rate accrues its hazard; the first read of the
    particle set thins once (see ParticleEnsemble)."""

    def spec(self, mu=1.0, D=0.5, table=None):
        return ModelSpec("DeathDiffusion", (L,), D, {"mu": Rate(const=mu, table=table)},
                         make_grid(np.full(N, 50_000 / L)))

    def test_steps_draw_nothing_until_n_is_read(self):
        spec = self.spec()
        rng = np.random.default_rng(23)
        ens = sample_initial(spec, rng)
        n0 = len(ens.positions)
        before = rng.bit_generator.state
        for _ in range(3):
            step(ens, spec, SimConfig(dt=0.01, replicas=1, seed=0), rng)
        assert rng.bit_generator.state == before
        n = ens.n
        drawn = rng.bit_generator.state
        assert drawn != before and n < n0
        assert ens.n == n and len(ens.species) == len(ens.replica) == n
        assert rng.bit_generator.state == drawn

    @pytest.mark.parametrize("read_every_step", [True, False])
    def test_survivors_do_not_depend_on_when_n_is_read(self, read_every_step):
        mu, dt, steps = 1.3, 0.01, 40
        spec = self.spec(mu)
        rng = np.random.default_rng(29)
        ens = sample_initial(spec, rng)
        n0 = ens.n
        sim = SimConfig(dt=dt, replicas=1, seed=0)
        for _ in range(steps):
            step(ens, spec, sim, rng)
            if read_every_step:
                assert ens.n <= n0
        p = math.exp(-mu * dt * steps)
        assert abs(ens.n - n0 * p) < 3 * math.sqrt(n0 * p * (1 - p))

    def test_a_tabulated_rate_thins_every_step(self):
        spec = self.spec(table=tuple(np.linspace(0.5, 1.5, N)))
        rng = np.random.default_rng(31)
        ens = sample_initial(spec, rng)
        sim = SimConfig(dt=0.01, replicas=1, seed=0)
        for _ in range(3):
            before = rng.bit_generator.state
            step(ens, spec, sim, rng)
            assert rng.bit_generator.state != before
            assert ens.hazard == 0.0

    def test_a_large_scalar_step_is_refused_at_the_first_step(self):
        """p = 1 - e^{-0.2} = 0.18 > MAX_EVENT_PROB, though no draw is made."""
        spec = self.spec(mu=20.0)
        rng = np.random.default_rng(37)
        ens = sample_initial(spec, rng)
        with pytest.raises(StepTooLarge):
            step(ens, spec, SimConfig(dt=0.01, replicas=1, seed=0), rng)


class TestRun:
    def test_gf_at_one_is_exactly_one(self):
        spec = gauss_spec(mass=5.0)
        sim = SimConfig(dt=0.05, replicas=64, seed=9)
        rep = run(spec, sim, 0.2, u=make_grid(np.ones(N)))
        assert rep.scalars["gf"] == (1.0, 0.0)

    def test_gf_matches_per_replica_product_loop(self):
        """The chunk's GF tally is the sum and square sum of each replica's
        product of u over its particles, exactly as a loop of np.prod computes
        it, with births appended out of replica order and some replicas empty."""
        spec = gauss_spec("BrownianTree", mu=2.0, mass=1.5)
        sim = SimConfig(dt=0.01, replicas=64, seed=21, chunk=64)
        u = make_grid(0.8 + 0.4 * np.sin(np.arange(N)) ** 2)
        t_end = 0.5
        gf = _chunk_stats(spec, sim, round(t_end / sim.dt), u, 0, sim.replicas)["gf"]
        ens = replay_chunk(spec, sim, t_end, 0, sim.replicas)
        assert np.any(np.diff(ens.replica) < 0)
        assert np.any(np.bincount(ens.replica, minlength=sim.replicas) == 0)
        expect = chunk_tallies(spec, sim, t_end, u, 0, sim.replicas)["gf"]
        assert gf == (expect.sum(), (expect * expect).sum())
        assert len(set(expect.tolist())) > 10

    def test_peak_memory_does_not_grow_with_replicas(self):
        """Each chunk is reduced to per-cell sums inside its worker, so
        quadrupling the replicas must not quadruple the peak allocation (kept
        per-replica cell counts would: 500 x 128 int64 per chunk).  One thread
        keeps one chunk in flight, so its peak does not depend on timing; two
        threads keep at most two."""
        g = FieldGrid((L,), np.zeros(128))
        spec = ModelSpec("DeathDiffusion", (L,), 1.0, {"mu": Rate(const=1.0)},
                         g.with_values(wrapped_gaussian(g, 5.0, 1.0, L / 2)))

        def peak(replicas, threads):
            sim = SimConfig(dt=0.05, replicas=replicas, seed=3, chunk=500)
            tracemalloc.start()
            try:
                run(spec, sim, 0.1, threads=threads)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(4000, 1), peak(16000, 1)
        assert large < 1.5 * small, (small, large)
        two = peak(16000, 2)
        assert two < 1.5 * 2 * small, (small, two)

    def test_reduction_equals_two_pass_over_chunk_stats(self):
        """run's fields and scalars equal, bit for bit, collecting every
        chunk's per-replica tallies first and reducing them afterwards.  The
        tallies are replayed densely (tests/oracles.py), and each chunk's
        sums and square sums from _chunk_stats equal theirs exactly."""
        g = make_grid()
        spec = ModelSpec("ConvertAB", (L,), 0.5,
                         {"mu": Rate(const=0.5, table=tuple(1 + np.sin(g.axes()[0]) ** 2))},
                         g.with_values(wrapped_gaussian(g, 8.0, 1.0, 4.0)),
                         vb=g.with_values(np.full(N, 0.2)))
        sim = SimConfig(dt=0.01, replicas=700, seed=31, chunk=300)
        t_end = 0.2
        rep = run(spec, sim, t_end, threads=2)
        R = sim.replicas
        tallies = [chunk_tallies(spec, sim, t_end, None, ci, min(sim.chunk, R - ci * sim.chunk))
                   for ci in range(3)]
        assert [len(t["N"]) for t in tallies] == [300, 300, 100]
        for ci, t in enumerate(tallies):
            sums = _chunk_stats(spec, sim, round(t_end / sim.dt), None, ci, len(t["N"]))
            assert set(sums) == set(t)
            for key, x in t.items():
                s, s2 = sums[key]
                assert s.dtype == s2.dtype == x.dtype, key
                assert np.array_equal(s, x.sum(axis=0)), key
                assert np.array_equal(s2, (x * x).sum(axis=0)), key

        def two_pass(key):
            s = s2 = 0.0
            for t in tallies:
                x = t[key].astype(float)
                s = s + x.sum(axis=0)
                s2 = s2 + (x ** 2).sum(axis=0)
            mean = s / R
            return mean, np.sqrt(np.maximum(s2 / R - mean ** 2, 0.0) / (R - 1))

        dV = g.cell_volume
        for s, name in ((0, "density"), (1, "density_b")):
            mean, se = two_pass(f"counts{s}")
            assert np.array_equal(rep.fields[name].values, mean / dV)
            assert np.array_equal(rep.fields[name + "_se"].values, se / dV)
        assert set(rep.fields) == {"density", "density_se", "density_b", "density_b_se"}
        for key in ("N", "N2", "void"):
            mean, se = two_pass(key)
            assert rep.scalars[key] == (mean, se)

    def test_n2_tally_of_large_replicas_does_not_wrap(self):
        """N2's square is n^4, past int64 at about 55,000 particles in one
        replica; its standard error must equal a float reference, not wrap."""
        spec = gauss_spec(mass=60000.0)
        sim = SimConfig(dt=0.05, replicas=3, seed=5)
        rep = run(spec, sim, 0.05)
        n = chunk_tallies(spec, sim, 0.05, None, 0, 3)["N"]
        assert int(n.min()) ** 4 > np.iinfo(np.int64).max
        x = n.astype(float) ** 2
        assert _chunk_stats(spec, sim, 1, None, 0, 3)["N2"] == (x.sum(), (x * x).sum())
        mean = x.sum() / 3
        se = np.sqrt(max((x ** 2).sum() / 3 - mean ** 2, 0.0) / 2)
        assert rep.scalars["N2"] == (mean, se)
        assert se > 0.5 * np.std(x, ddof=1) / np.sqrt(3)

    @pytest.mark.parametrize("t_end", [-1.0, math.nan, math.inf, 0.015, 0.0500001])
    def test_t_end_not_a_whole_number_of_steps_refused(self, t_end):
        """Only the CLI checked t_end: on this model run(spec, sim, -1.0)
        returned the t = 0 state (N 19.675) and run(spec, sim, 0.015) the
        t = 0.02 state."""
        g = FieldGrid((L,), np.zeros(16))
        spec = ModelSpec("DeathDiffusion", (L,), 1.0, {"mu": Rate(const=1.0)},
                         g.with_values(wrapped_gaussian(g, 20.0, 1.0, L / 2)))
        sim = SimConfig(dt=0.01, replicas=200, seed=1)
        with pytest.raises(Unfit, match="whole number of dt = 0.01 steps"):
            run(spec, sim, t_end)

    @pytest.mark.parametrize("kind, rates, t, births, hazard", [
        ("DeathDiffusion", {"mu": Rate(const=3.0)}, 2.0, 0.0, 0.0),
        ("BrownianTree", {"mu": Rate(const=0.5, table=tuple(1 + np.sin(np.arange(N)) ** 2))},
         2.0, 0.0, 0.5 * np.max(1 + np.sin(np.arange(N)) ** 2) * 2.0),
        ("SpontBirth", {"mu": Rate(const=3.0, time="sin2")}, 2.0,
         3.0 * (2.0 - math.cos(2.0) * math.sin(2.0)) / 2 * L, 0.0),
        ("BirthDeathTimeDep", {"mu": Rate(const=3.0), "nu": Rate(const=50.0)}, 2.0,
         3.0 * 2.0 * L, 0.0),
        ("BrownianTree", {"mu": Rate(const=1000.0)}, 1.0, 0.0, 1000.0),
    ], ids=["death", "branching-table", "births-sin2", "births-ignore-death", "overflow"])
    def test_expected_particles_bound(self, kind, rates, t, births, hazard):
        """n0 e^L + B: L the largest branching hazard on the grid, B the
        births as if nothing died; inf, not an OverflowError, past e^709."""
        spec = gauss_spec(kind, mass=5.0, rates=rates)
        n0 = spec.grid().integral()
        expect = n0 * math.exp(hazard) + births if hazard < 700 else math.inf
        assert _expected_particles(spec, _event_rates(spec), t) == pytest.approx(expect,
                                                                                 rel=1e-12)

    def test_expected_particles_of_an_empty_branching_model(self):
        """0 e^1000 is 0, not NaN, so the caps pass a model with no particles."""
        spec = ModelSpec("BrownianTree", (L,), 1.0, {"mu": Rate(const=1000.0)}, make_grid())
        assert _expected_particles(spec, _event_rates(spec), 1.0) == 0.0

    def test_determinism(self):
        spec = gauss_spec(mass=5.0)
        sim = SimConfig(dt=0.05, replicas=300, seed=123, chunk=64)
        r1 = run(spec, sim, 0.3)
        r2 = run(spec, sim, 0.3)
        assert np.array_equal(r1.fields["density"].values, r2.fields["density"].values)
        assert r1.scalars == r2.scalars

    def test_thread_count_does_not_change_results(self):
        spec = gauss_spec(mass=5.0)
        sim = SimConfig(dt=0.05, replicas=300, seed=123, chunk=64)
        r1 = run(spec, sim, 0.3, threads=1)
        r4 = run(spec, sim, 0.3, threads=4)
        assert np.array_equal(r1.fields["density"].values, r4.fields["density"].values)
        assert r1.scalars == r4.scalars

    @pytest.mark.parametrize("cpus, workers", [(8, 8), (1000, 64)])
    def test_worker_pool_is_bounded_by_chunks_and_cpus(self, monkeypatch, cpus, workers):
        """threads=10**6 on 64 chunks asks the pool for at most one worker
        per chunk and per CPU, so a huge --threads cannot start a thread, or
        hold a chunk of particles, per chunk.  The pool is a fake that
        records max_workers and maps serially, so no thread starts; the
        report equals the threads=1 report."""
        from rdito import simulate

        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def map(self, fn, items):
                return map(fn, items)

        spec = gauss_spec(mass=5.0)
        sim = SimConfig(dt=0.05, replicas=256, seed=123, chunk=4)
        r1 = run(spec, sim, 0.1)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        many = run(spec, sim, 0.1, threads=10 ** 6)
        assert asked == [workers]
        assert np.array_equal(r1.fields["density"].values, many.fields["density"].values)
        assert r1.scalars == many.scalars

    def test_death_diffusion_density_matches_closed_form(self):
        spec = gauss_spec()
        t = 0.5
        sim = SimConfig(dt=0.005, replicas=4000, seed=7)
        rep = run(spec, sim, t)
        ref = cell_averaged("DeathDiffusion", t)
        z = zscores(rep, ref)
        assert np.mean(np.abs(z) > 3) <= 0.02

    def test_death_diffusion_gf_matches_closed_form(self):
        spec = gauss_spec()
        t = 0.4
        g = spec.grid()
        u = g.with_values(1 - 0.4 * np.exp(-((g.axes()[0] - 5) ** 2) / 4))
        sim = SimConfig(dt=0.01, replicas=4000, seed=8)
        rep = run(spec, sim, t, u=u)
        mean, se = rep.scalars["gf"]
        ref = math.exp(death_diffusion_log_gf(spec, u, t))
        assert abs(mean - ref) < 3 * se

    def test_dt_convergence(self):
        spec = gauss_spec()
        t = 0.4
        rep1 = run(spec, SimConfig(dt=0.02, replicas=3000, seed=11), t)
        rep2 = run(spec, SimConfig(dt=0.01, replicas=3000, seed=12), t)
        m1, s1 = rep1.scalars["N"]
        m2, s2 = rep2.scalars["N"]
        assert abs(m1 - m2) < 3 * math.hypot(s1, s2)

    def test_brownian_tree_vs_series(self):
        spec = gauss_spec(kind="BrownianTree", mu=0.5, D=1.0, mass=10.0)
        t = 0.4
        rep = run(spec, SimConfig(dt=0.005, replicas=3000, seed=13), t)
        ref = cell_averaged("BrownianTree", t, mu=0.5, mass=10.0)
        z = zscores(rep, ref)
        assert np.mean(np.abs(z) > 3) <= 0.02
        m, s = rep.scalars["N"]
        assert abs(m - brownian_tree_density(spec, t).integral()) < 3 * s

    def test_brownian_tree_gf_matches_closed_form(self):
        """Offspring share their parent's displacement up to the branching;
        drawn at a read after it, siblings would move independently, which
        leaves the density as it is but moves this GF by about 10 SE."""
        spec = gauss_spec(kind="BrownianTree", mu=2.0, D=1.0, mass=2.0)
        t = 0.5
        u = make_grid(np.where(np.abs(make_grid().axes()[0] - L / 2) < 1.0, 0.2, 1.0))
        rep = run(spec, SimConfig(dt=0.01, replicas=30_000, seed=1, chunk=4096), t, u=u)
        mean, se = rep.scalars["gf"]
        assert abs(mean - math.exp(brownian_tree_log_gf(spec, u, t))) < 4 * se

    def test_convert_ab(self):
        g = make_grid()
        va = g.with_values(wrapped_gaussian(g, 8.0, 1.0, 4.0))
        vb = g.with_values(np.full(N, 0.2))
        x = g.axes()[0]
        prof = 1 + np.sin(2 * np.pi * x / L) ** 2
        spec = ModelSpec("ConvertAB", (L,), 0.0,
                         {"mu": Rate(const=0.5, table=tuple(prof))}, va, vb=vb)
        t = 0.8
        rep = run(spec, SimConfig(dt=0.01, replicas=3000, seed=14), t)
        xa, xb = convert_ab_densities(spec, t)
        za = zscores(rep, xa.values)
        assert np.mean(np.abs(za) > 3) <= 0.02
        dV = g.cell_volume
        predb = np.sqrt(np.maximum(xb.values, 0) * dV / rep.replicas) / dV
        seb = np.maximum(rep.fields["density_b_se"].values, predb)
        zb = (rep.fields["density_b"].values - xb.values) / seb
        assert np.mean(np.abs(zb) > 3) <= 0.02

    def test_spont_birth(self):
        g = make_grid()
        v = g.with_values(np.full(N, 0.4))
        x = g.axes()[0]
        gprof = 0.5 + 0.5 * np.cos(2 * np.pi * x / L) ** 2
        spec = ModelSpec("SpontBirth", (L,), 0.0,
                         {"mu": Rate(table=tuple(gprof), time="sin2")}, v)
        t = 1.5
        rep = run(spec, SimConfig(dt=0.01, replicas=2000, seed=15), t)
        ref = birth_death_timedep_density(spec, t)
        m, s = rep.scalars["N"]
        assert abs(m - ref.integral()) < 3 * s
        z = zscores(rep, ref.values)
        assert np.mean(np.abs(z) > 3) <= 0.02

    def test_birth_death_timedep(self):
        g = make_grid()
        v = g.with_values(np.full(N, 2.0))
        mu, nu, t = 0.7, 1.3, 0.9
        spec = ModelSpec("BirthDeathTimeDep", (L,), 0.0,
                         {"mu": Rate(const=mu), "nu": Rate(const=nu)}, v)
        rep = run(spec, SimConfig(dt=0.005, replicas=2000, seed=16), t)
        ref = birth_death_timedep_density(spec, t)
        m, s = rep.scalars["N"]
        assert abs(m - ref.integral()) < 3 * s

    def test_annihilation_monotone_and_deterministic(self):
        g = make_grid()
        v = g.with_values(np.full(N, 3.0))
        spec = ModelSpec("Annihilation", (L,), 0.5, {}, v)
        kern = RadialKernel(cutoff=0.5, samples=(2.0, 2.0, 2.0, 2.0, 0.0))
        sim = SimConfig(dt=0.01, replicas=200, seed=17, kernel=kern)
        r1 = run(spec, sim, 0.3)
        r2 = run(spec, sim, 0.3)
        assert r1.scalars == r2.scalars
        assert r1.scalars["N"][0] < 30.0  # started at E N = 30, must decrease

    def test_annihilation_2d_decays(self):
        m, se = run(*_annihilation_2d()).scalars["N"]
        assert m < 54.0 - 10 * se  # started at E N = 1.5 * 36

    def test_annihilation_needs_kernel(self):
        """Refused before any step, so also at t_end = 0, where no step runs."""
        g = make_grid()
        spec = ModelSpec("Annihilation", (L,), 0.5, {}, g.with_values(np.ones(N)))
        for t_end in (0.0, 0.01):
            with pytest.raises(SimError, match="needs a kernel"):
                run(spec, SimConfig(dt=0.01, replicas=1, seed=0), t_end)

    def test_report_serialization(self):
        spec = gauss_spec(mass=3.0)
        rep = run(spec, SimConfig(dt=0.05, replicas=32, seed=18), 0.1)
        js = rep.scalars_json()
        assert '"replicas": 32' in js
        csv = rep.grid_csv()
        assert csv.startswith("name,index,value")


# ---------------------------------------------------------------------------
# A+A pair search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cells", [
    (1,), (2,), (3,), (7,), (1, 5), (2, 3), (5, 6), (1, 2, 3), (3, 3, 3), (2, 5, 1), (6, 4, 2),
])
def test_candidate_pairs_are_the_adjacent_cell_pairs(cells):
    """Exactly the same-replica pairs whose cells differ by -1, 0 or 1 on
    every axis (mod the cell count, so 1 and 2 cells alias offsets), each
    unordered pair once, and every pair within the cutoff among them."""
    rng = np.random.default_rng(len(cells) * 100 + sum(cells))
    cutoff = 0.7
    box = tuple(cutoff * (n + 0.6) for n in cells)
    nrep, npart = 4, 90
    pos = rng.random((npart, len(box))) * np.asarray(box)
    rep = rng.integers(0, nrep, size=npart)
    ens = ParticleEnsemble(box, pos, np.zeros(npart, dtype=np.int64), rep, nrep)
    i, j = _candidate_pairs(ens, cutoff)
    got = [frozenset(p) for p in zip(i.tolist(), j.tolist())]
    assert all(len(p) == 2 for p in got) and len(set(got)) == len(got)

    cell = (pos / (np.asarray(box) / cells)).astype(int)
    dx = pos[:, None] - pos[None]
    dist = np.linalg.norm(dx - box * np.round(dx / box), axis=-1)
    adjacent, close = set(), set()
    for a, b in itertools.combinations(range(npart), 2):
        if rep[a] != rep[b]:
            continue
        if all((cell[a, ax] - cell[b, ax]) % n in {0, 1, n - 1} for ax, n in enumerate(cells)):
            adjacent.add(frozenset((a, b)))
        if dist[a, b] <= cutoff:
            close.add(frozenset((a, b)))
    assert set(got) == adjacent
    assert close <= adjacent and len(close) > 0


def test_candidate_pairs_of_an_empty_ensemble():
    ens = ParticleEnsemble((3.0, 3.0), np.zeros((0, 2)), np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=np.int64), 2)
    i, j = _candidate_pairs(ens, 1.0)
    assert len(i) == len(j) == 0


def _criterion_11_mc(seed, replicas, t):
    """Criterion 11's particle Monte Carlo (tests/test_acceptance.py)."""
    cutoff, sigma = 1.5, 0.5
    xs = np.linspace(0.0, cutoff, 31)
    c = 0.5 / (sigma * math.sqrt(2 * math.pi) * math.erf(cutoff / (sigma * math.sqrt(2))))
    kern = RadialKernel(cutoff, tuple(c * np.exp(-xs ** 2 / (2 * sigma ** 2))))
    g = FieldGrid((L,), np.full(32, 2.0))
    x = g.axes()[0]
    tab = np.asarray(kern(np.minimum(x, L - x)), float)
    spec = ModelSpec("Annihilation", (L,), 1.0, {"R": Rate(const=1.0, table=tuple(tab))}, g)
    return spec, SimConfig(dt=0.02, replicas=replicas, seed=seed, kernel=kern), t


def _annihilation_2d():
    g = FieldGrid((6.0, 6.0), np.full((16, 16), 1.5))
    spec = ModelSpec("Annihilation", g.box, 0.5, {}, g)
    return spec, SimConfig(dt=0.01, replicas=200, seed=21,
                           kernel=RadialKernel(1.0, (2.0, 2.0, 1.0, 0.0))), 0.2


def _annihilation_3d():
    """4, 2 and 2 cells per axis: the 2-cell axes alias the -1 and +1 offsets."""
    g = FieldGrid((3.0, 1.5, 2.0), np.full((6, 3, 4), 2.0))
    spec = ModelSpec("Annihilation", g.box, 0.3, {}, g)
    return spec, SimConfig(dt=0.01, replicas=40, seed=22, chunk=16,
                           kernel=RadialKernel(0.7, (3.0, 2.0, 0.0))), 0.1


def test_well_mixed_annihilation_matches_the_exact_chain():
    """With a flat kernel of cutoff L/2 every pair of a replica is in reach,
    so N(t) is the pure-death chain n -> n - 2 at rate c n (n - 1) / 2
    wherever the particles are (oracles.annihilation_chain_law); D = 0.  The
    Monte Carlo lies within 3 SE of the chain's exact mean and more than 3 SE
    from the mean field N0 / (1 + c N0 t).  The same run's second moment and
    void probability lie within 3 SE of the chain's E[N^2] and P(N = 0)."""
    c, v, t = 0.5, 0.4, 1.0
    n0 = v * L
    law = annihilation_chain_law(n0, c, t)
    n = np.arange(len(law))
    exact = law @ n
    assert law.sum() == pytest.approx(1.0, abs=1e-14)
    assert exact == pytest.approx(1.46434, abs=5e-6)
    spec = ModelSpec("Annihilation", (L,), 0.0, {}, FieldGrid((L,), np.full(16, v)))
    kern = RadialKernel(cutoff=L / 2, samples=(c, c))
    scalars = run(spec, SimConfig(dt=0.01, replicas=4000, seed=3, kernel=kern), t).scalars
    m, se = scalars["N"]
    assert abs(m - exact) < 3 * se
    assert abs(m - n0 / (1 + c * n0 * t)) > 3 * se
    for key, want in (("N2", law @ n ** 2), ("void", law[0])):
        got, se = scalars[key]
        assert abs(got - want) < 3 * se, (key, (got - want) / se)


@pytest.mark.parametrize("kind, law", [
    ("BrownianTree", lambda n0, mu, t: n0 * (2 * math.exp(2 * mu * t) - math.exp(mu * t))),
    ("DeathDiffusion", lambda n0, mu, t: n0 * math.exp(-mu * t)),
], ids=["brownian-tree", "death-diffusion"])
def test_particle_number_variance_matches_its_law(kind, law):
    """Var N = N2 - N^2 from the scalars, on a uniform Poisson start of mean
    n0 = L v.  Each BrownianTree founder leaves a geometric family of mean
    e^{mu t}, so Var N = n0 (2 e^{2 mu t} - e^{mu t}), far above the Poisson
    value; DeathDiffusion thins a Poisson count, so Var N = E N = n0 e^{-mu t}.
    The bound is the delta-method SE of N2 - N^2 taken without the covariance,
    se(N2) + 2 N se(N): over seeds 1-8 the deviation stayed within 0.39 of it."""
    v, mu, t = 0.5, 1.0, 1.0
    spec = ModelSpec(kind, (L,), 1.0, {"mu": Rate(const=mu)}, FieldGrid((L,), np.full(16, v)))
    scalars = run(spec, SimConfig(dt=0.01, replicas=20_000, seed=1, chunk=256), t,
                  threads=2).scalars
    (n, se_n), (n2, se_n2) = scalars["N"], scalars["N2"]
    var, bound = n2 - n * n, se_n2 + 2 * n * se_n
    assert abs(var - law(L * v, mu, t)) <= bound, (var, law(L * v, mu, t), bound)
    if kind == "BrownianTree":
        assert abs(var - L * v * math.exp(mu * t)) > 10 * bound  # not Poisson


@pytest.mark.parametrize("case, digest", [
    (lambda: _criterion_11_mc(5, 3000, 0.2),
     "e888d7358b8132ecb5bd405e0f1c8ed4f60cc999c9182f499eb7c755e5ea7342"),
    (lambda: _criterion_11_mc(6, 1500, 1.5),
     "da3a8f954077d457fa7d2f086cd22f211077c098050e1454c16e906b772fdf79"),
    (_annihilation_2d, "0cc59debb746b95c3a274196372bdc4ff3f5966ac31d1909a51c2022e749468f"),
    (_annihilation_3d, "1bffecac6ad58a6da1965c22f1af0accf2e097c206cc1bb911647b1b7c75006d"),
], ids=["crit11-seed5", "crit11-seed6", "2d", "3d"])
def test_seeded_annihilation_output_is_pinned(case, digest):
    """SHA-256 of the serialized report, as recorded from the dict-and-loop
    cell list this pair search replaced: same pairs, same order, same draws."""
    rep = run(*case())
    text = rep.scalars_json() + rep.grid_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _pinned_stream(kind, rates, mass=8.0, D=0.5, vb=None):
    """A 32-cell model on a Gaussian start with `rates` given as functions of
    the grid points x; 2,000 replicas in chunks of 300 to t = 0.5, with u."""
    g = FieldGrid((L,), np.zeros(32))
    x = g.axes()[0]
    rates = {k: Rate(const=r) if np.isscalar(r) else Rate(table=tuple(r(x)))
             for k, r in rates.items()}
    spec = ModelSpec(kind, (L,), D, rates, g.with_values(wrapped_gaussian(g, mass, 1.0, L / 2)),
                     vb=None if vb is None else g.with_values(np.full(32, vb)))
    u = g.with_values(0.8 + 0.4 * np.sin(x) ** 2)
    return spec, SimConfig(dt=0.01, replicas=2000, seed=7, chunk=300), 0.5, u


@pytest.mark.parametrize("case, digest", [
    (lambda: _pinned_stream("DeathDiffusion", {"mu": 1.0}, mass=20.0, D=1.0),
     "9c7d1872f6e5c7eb76939db2f5c4889c60c8097d1894d8e522f5f7e6842ae179"),
    (lambda: _pinned_stream("BrownianTree", {"mu": 0.8}, mass=5.0, D=1.0),
     "46441dc3f09cbbeee45e7c5787f3bd4948399a95a22df2bfc163fc4f5b50f11c"),
    (lambda: _pinned_stream("ConvertAB", {"mu": lambda x: 1 + np.sin(x) ** 2}, vb=0.2),
     "ea9a20937435e06c150584aa8a905439c1516ef033bf273e4d520d3fe6103e67"),
    (lambda: _pinned_stream("SpontBirth", {"mu": lambda x: 2 + np.cos(2 * np.pi * x / L)},
                            mass=2.0),
     "f5a79cab23bbbe0c9a5de99a9a0cfdac42b77bba52321b0ca3154e206e97d560"),
    (lambda: _pinned_stream("BirthDeathTimeDep",
                            {"nu": lambda x: np.linspace(0.2, 1.8, 32), "mu": 4.0}),
     "00e4a5ecbb3a16d6f6617ab163fda67b823d959c1595b1ebb4de95e3143f8f04"),
    (lambda: _pinned_stream("DeathDiffusion", {"mu": lambda x: 0.5 + x / L}, mass=20.0),
     "aabff9518675082bb36e073e858a8eae0274ca89baa038c4c1ea6c3b20103948"),
], ids=["death-diffusion", "brownian-tree", "convert-ab-table", "spont-birth-table",
        "birth-death-nu-table", "death-mu-table"])
def test_seeded_non_uniform_output_is_pinned(case, digest):
    """SHA-256 of the serialized report on non-uniform fields, where the
    cell draw is not a plain floor of u * cells; recorded at 2040f91, when
    the draw was numpy's `Generator.choice(p=...)`."""
    spec, sim, t_end, u = case()
    rep = run(spec, sim, t_end, u=u, threads=2)
    text = rep.scalars_json() + rep.grid_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _convert_ab_2d():
    """ConvertAB with vb and a tabulated mu on 12 x 8 cells, with u."""
    g = FieldGrid((6.0, 4.0), np.zeros((12, 8)))
    x, y = np.meshgrid(*g.axes(), indexing="ij")
    mu = 1 + np.sin(x) ** 2 * np.cos(y / 2) ** 2
    spec = ModelSpec("ConvertAB", g.box, 0.3, {"mu": Rate(table=tuple(map(tuple, mu)))},
                     g.with_values(wrapped_gaussian(g, 12.0, 1.0, (2.0, 1.5))),
                     vb=g.with_values(0.1 + 0.05 * x))
    u = g.with_values(0.8 + 0.2 * np.cos(x + y) ** 2)
    return spec, SimConfig(dt=0.01, replicas=600, seed=9, chunk=128), 0.3, u


@pytest.mark.parametrize("case, digest", [
    (_convert_ab_2d, "77081b1d712d41079a7d812e908bcd80d108c9546ce8377c9e66e8bf172ef211"),
    (lambda: _pinned_stream("SpontBirth", {"mu": lambda x: 2 + np.cos(2 * np.pi * x / L)},
                            mass=0.0),
     "14a0bb783c301b69280a2d0bc4e4c47df5e4d099fd7729fb53cb3a891ebd8c51"),
], ids=["convert-ab-2d", "spont-birth-from-empty"])
def test_seeded_stream_past_the_1d_start_is_pinned(case, digest):
    """SHA-256 of the serialized report on two streams the digests above
    miss, recorded at 4a899b8 before the particle coordinates were gathered
    from a per-axis table: a 2-D ConvertAB run (coordinates and the species
    tallies off one axis) and a SpontBirth run from v = 0 with D > 0, whose
    first births land in an empty ensemble that already carries pending
    diffusion, which they must not inherit."""
    spec, sim, t_end, u = case()
    rep = run(spec, sim, t_end, u=u, threads=2)
    text = rep.scalars_json() + rep.grid_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
