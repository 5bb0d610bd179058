"""Tests for closed-form model evaluators, against independent oracles."""

import math

import numpy as np
import pytest
from scipy import integrate, linalg, stats

from rdito.grid import FieldGrid, POSITION
from rdito.models import (
    KINDS,
    DegenerateTime,
    GFQuery,
    ModelError,
    ModelSpec,
    NonconstantRate,
    Rate,
    SeriesDivergence,
    birth_death_timedep_density,
    brownian_tree_density,
    brownian_tree_log_gf,
    convert_ab_densities,
    death_diffusion_density,
    death_diffusion_fn,
    death_diffusion_log_gf,
    density_csv,
    diffuse,
    discrete_death_gf,
    discrete_death_mean,
    discrete_death_pmf,
    heat_kernel,
    image_sum,
    spont_birth_density,
    stirling2,
    wrapped_gaussian,
)

L, N = 10.0, 64


def position_grid(box, values) -> FieldGrid:
    return FieldGrid(tuple(np.atleast_1d(box)), np.asarray(values, float), POSITION)


def sample_function(box, shape, f) -> FieldGrid:
    """Sample f(x1, ..., xd) on the grid; f must accept broadcast arrays."""
    box = tuple(np.atleast_1d(box))
    g = FieldGrid(box, np.zeros(tuple(shape)), POSITION)
    mesh = np.meshgrid(*g.axes(), indexing="ij")
    return g.with_values(np.asarray(f(*mesh), float))


def gaussian_spec(kind="DeathDiffusion", mu=1.0, D=1.0, mass=20.0, **kw):
    g = FieldGrid((L,), np.zeros(N), POSITION)
    v = g.with_values(wrapped_gaussian(g, mass, 1.0, L / 2))
    return ModelSpec(kind=kind, box=(L,), D=D, rates={"mu": Rate(const=mu)}, v=v, **kw)


def unit_query(spec, t, bump=None, eps=0.0):
    g = spec.grid()
    u = np.ones(g.shape)
    if bump is not None:
        u[bump] += eps / g.cell_volume
    return GFQuery(u=g.with_values(u), t=t)


class TestFieldGrid:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for shape, box in [((64,), (10.0,)), ((16, 24), (4.0, 6.0))]:
            g = FieldGrid(box, rng.normal(size=shape), POSITION)
            back = g.to_momentum().to_position()
            assert np.max(np.abs(back.values - g.values)) < 1e-12 * max(
                1.0, np.max(np.abs(g.values))
            )

    def test_momentum_zero_mode_is_integral(self):
        g = sample_function((10.0,), (64,), lambda x: np.exp(-((x - 5) ** 2)))
        assert g.to_momentum().integral() == pytest.approx(g.integral(), rel=1e-12)

    def test_shape_box_mismatch(self):
        with pytest.raises(ValueError):
            FieldGrid((1.0, 2.0), np.zeros(8), POSITION)


class TestHeatKernel:
    def test_unit_prefactor(self):
        # (4 pi D t)^{-1/2} = 1 and zero exponent
        assert heat_kernel(1, 1.0, [0.0], 1 / (4 * math.pi)) == pytest.approx(1.0)

    def test_normalization_on_box(self):
        t, D = 0.35, 1.0
        x = np.arange(200) * (L / 200)
        vals = [heat_kernel(1, D, [xi - L / 2], t, box=(L,)) for xi in x]
        assert np.sum(vals) * (L / 200) == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_time(self):
        with pytest.raises(DegenerateTime):
            heat_kernel(1, 1.0, [0.0], 0.0)
        with pytest.raises(DegenerateTime):
            heat_kernel(1, 0.0, [0.0], 1.0)

    def test_matches_brownian_histogram(self):
        # 1e6 Gaussian increments, var 2Dt, binned against the free kernel
        rng = np.random.default_rng(42)
        D, t, n = 0.5, 0.8, 1_000_000
        xs = rng.normal(0.0, math.sqrt(2 * D * t), size=n)
        edges = np.linspace(-4, 4, 41)
        counts, _ = np.histogram(xs, edges)
        width = edges[1] - edges[0]
        for i in range(len(counts)):
            mid = 0.5 * (edges[i] + edges[i + 1])
            p = heat_kernel(1, D, [mid], t) * width
            se = math.sqrt(p * (1 - p) * n)
            assert abs(counts[i] - p * n) < 3 * se + 1.0

    def test_diffuse_matches_kernel_convolution(self):
        g = sample_function((L,), (N,), lambda x: np.exp(-((x - 3) ** 2) / 2))
        t, D = 0.4, 1.0
        spectral = diffuse(g, D, t)
        x = g.axes()[0]
        direct = np.zeros(N)
        for i in range(N):
            k = np.array(
                [heat_kernel(1, D, [x[i] - xj], t, box=(L,)) for xj in x]
            )
            direct[i] = np.sum(k * g.values) * g.cell_volume
        assert np.max(np.abs(spectral.values - direct)) < 1e-10


def wrapped_gaussian_loop(grid, mass, width, center):
    """wrapped_gaussian as written before `image_sum`, the reference its
    arithmetic must reproduce bit for bit (seeded outputs depend on it)."""
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


class TestImageSum:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_wrapped_gaussian_equals_image_loop(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(150):
            box = tuple(rng.uniform(0.5, 20.0, dim))
            g = FieldGrid(box, np.zeros(tuple(rng.integers(1, 65, dim))), POSITION)
            width = rng.uniform(0.05, 3.0) * rng.choice(box)
            center = rng.uniform(0.0, box)
            mass = rng.uniform(0.1, 50.0)
            got = wrapped_gaussian(g, mass, width, center)
            assert np.array_equal(got, wrapped_gaussian_loop(g, mass, width, center))

    def test_wide_kernel_is_the_poisson_summation_constant(self):
        """Past two_var = 1e6 L^2 image_sum returns sqrt(pi two_var) / L; just
        below, the direct sum agrees with that to rounding."""
        dx = np.linspace(-3.0, 3.0, 13)
        for two_var in (0.999e6 * 9.0, 1.001e6 * 9.0, 1e30):
            expect = math.sqrt(math.pi * two_var) / 3.0
            assert np.allclose(image_sum(dx, 3.0, two_var), expect, rtol=1e-12, atol=0)

    def test_matches_explicit_images(self):
        dx = np.linspace(-3.0, 3.0, 13)
        explicit = sum(np.exp(-((dx + j * 2.0) ** 2) / 1.5) for j in range(-40, 41))
        assert np.allclose(image_sum(dx, 2.0, 1.5), explicit, rtol=1e-13, atol=0)


class TestStirling:
    def test_ordered_product_identity(self):
        # sum over 1 <= m_1 <= ... <= m_{n-k} <= k+1 of prod m_i = S(n+1, k+1)
        import itertools

        for n in range(0, 11):
            for k in range(0, n + 1):
                r = n - k
                tot = 0
                for combo in itertools.combinations_with_replacement(
                    range(1, k + 2), r
                ):
                    tot += math.prod(combo)
                assert tot == stirling2(n + 1, k + 1), (n, k)

    def test_edge_values(self):
        for n in range(1, 12):
            assert stirling2(n, n) == 1
            assert stirling2(n, 1) == 1
        assert stirling2(4, 2) == 7
        assert stirling2(0, 0) == 1

    def test_egf_partial_sums(self):
        x, k = 0.3, 3
        s = sum(stirling2(n, k) * x ** n / math.factorial(n) for n in range(k, 21))
        assert s == pytest.approx((math.exp(x) - 1) ** k / math.factorial(k), abs=1e-10)

    def test_explicit_formula_oracle(self):
        for n in range(0, 12):
            for k in range(0, n + 1):
                ref = sum(
                    (-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)
                ) // math.factorial(k)
                assert stirling2(n, k) == ref


class TestDeathDiffusion:
    def test_density_t0_is_v(self):
        spec = gaussian_spec()
        out = death_diffusion_density(spec, 0.0)
        assert np.allclose(out.values, spec.grid().values, rtol=0, atol=1e-14)

    def test_density_static_limit(self):
        spec = gaussian_spec(D=0.0)
        out = death_diffusion_density(spec, 0.7)
        ref = spec.grid().values * math.exp(-0.7)
        assert np.max(np.abs(out.values - ref)) < 1e-12

    def test_log_gf_t0(self):
        spec = gaussian_spec()
        rng = np.random.default_rng(3)
        u = spec.grid().with_values(1 + 0.3 * rng.random(N))
        got = death_diffusion_log_gf(spec, GFQuery(u=u, t=0.0))
        ref = np.sum((u.values - 1) * spec.grid().values) * spec.grid().cell_volume
        assert got == pytest.approx(ref, rel=1e-12)

    def test_probability_conservation(self):
        spec = gaussian_spec()
        for t in np.linspace(0, 3, 20):
            assert abs(death_diffusion_log_gf(spec, unit_query(spec, t))) <= 1e-9

    def test_semigroup(self):
        spec = gaussian_spec(mu=0.8, D=0.6)
        t1, t2 = 0.3, 0.45
        once = death_diffusion_density(spec, t1 + t2)
        mid = death_diffusion_density(spec, t1)
        spec2 = ModelSpec(spec.kind, spec.box, spec.D, spec.rates, mid)
        twice = death_diffusion_density(spec2, t2)
        assert np.max(np.abs(once.values - twice.values)) < 1e-10

    def test_density_is_gf_derivative(self):
        spec = gaussian_spec()
        t = 0.5
        dens = death_diffusion_density(spec, t)
        for idx in (N // 2, N // 3):
            ds = []
            for eps in (1e-3, 1e-4):
                hi = death_diffusion_log_gf(
                    spec, unit_query(spec, t, bump=idx, eps=eps)
                )
                lo = death_diffusion_log_gf(
                    spec, unit_query(spec, t, bump=idx, eps=-eps)
                )
                ds.append((hi - lo) / (2 * eps))
            h1, h2 = 1e-3, 1e-4
            rich = (h1 ** 2 * ds[1] - h2 ** 2 * ds[0]) / (h1 ** 2 - h2 ** 2)
            assert rich == pytest.approx(dens.values[idx], rel=1e-6)

    def test_fn_void_probability(self):
        spec = gaussian_spec()
        total = spec.grid().integral()
        assert death_diffusion_fn(spec, [], 0.0) == pytest.approx(math.exp(-total))
        big = gaussian_spec(mu=1e8)
        assert death_diffusion_fn(big, [], 10.0) == pytest.approx(1.0)

    def test_fn_product_form(self):
        spec = gaussian_spec(mu=0.7, D=0.9)
        t = 0.6
        x = spec.grid().axes()[0]
        pts = [[x[20]], [x[40]]]
        dens = death_diffusion_density(spec, t)
        # the n-point density factorizes into the one-point densities
        expect = math.exp(-math.exp(-0.7 * t) * spec.grid().integral())
        for p in pts:
            i = int(round(p[0] / spec.grid().spacing[0]))
            expect *= dens.values[i]
        got = death_diffusion_fn(spec, pts, t)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_nonconstant_rate_rejected(self):
        g = FieldGrid((L,), np.zeros(N), POSITION)
        v = g.with_values(np.ones(N))
        spec = ModelSpec(
            "DeathDiffusion", (L,), 1.0,
            {"mu": Rate(table=tuple(np.ones(N)))}, v,
        )
        with pytest.raises(NonconstantRate):
            death_diffusion_density(spec, 1.0)

    def test_positivity(self):
        spec = gaussian_spec()
        for t in (0.1, 1.0, 3.0):
            assert np.all(death_diffusion_density(spec, t).values >= 0)


class TestBrownianTree:
    def test_static_exact(self):
        spec = gaussian_spec(kind="BrownianTree", mu=0.5, D=0.0)
        for t in (0.0, 0.3, 2.0):
            out = brownian_tree_density(spec, t)
            ref = spec.grid().values * math.exp(0.5 * t)
            assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.max(ref)

    def test_mu_zero_reduces_to_diffusion(self):
        spec = gaussian_spec(kind="BrownianTree", mu=0.0, D=1.0)
        t = 0.4
        out = brownian_tree_density(spec, t)
        ref = diffuse(spec.grid(), 1.0, t)
        assert np.max(np.abs(out.values - ref.values)) < 1e-10

    def test_series_matches_growth_diffusion_closed_form(self):
        # summed series must equal e^{mu t} Phi * v (exact branching mean)
        spec = gaussian_spec(kind="BrownianTree", mu=0.5, D=1.0)
        t = 0.5
        out = brownian_tree_density(spec, t)
        ref = diffuse(spec.grid(), 1.0, t).values * math.exp(0.5 * t)
        assert np.max(np.abs(out.values - ref)) < 1e-9 * np.max(ref)

    def test_density_vs_discrete_master_equation(self):
        # two-site birth/hop model solved exactly by the master equation;
        # the antisymmetric mode must decay like e^{(mu - 2w) t}, which is
        # the 2-site analogue of the spectral factor e^{(mu - D k^2) t}
        mu, w, t = 0.5, 0.3, 0.5
        v0, v1, nmax = 0.3, 0.1, 25
        dim = nmax * nmax
        idx = lambda a, b: a * nmax + b
        gen = np.zeros((dim, dim))
        for a in range(nmax):
            for b in range(nmax):
                i, out = idx(a, b), 0.0
                if a + 1 < nmax:
                    gen[idx(a + 1, b), i] += mu * a
                out += mu * a
                if b + 1 < nmax:
                    gen[idx(a, b + 1), i] += mu * b
                out += mu * b
                if a > 0 and b + 1 < nmax:
                    gen[idx(a - 1, b + 1), i] += w * a
                out += w * a
                if b > 0 and a + 1 < nmax:
                    gen[idx(a + 1, b - 1), i] += w * b
                out += w * b
                gen[i, i] -= out
        p0 = np.array(
            [
                stats.poisson.pmf(a, v0) * stats.poisson.pmf(b, v1)
                for a in range(nmax)
                for b in range(nmax)
            ]
        )
        p0 /= p0.sum()
        pt = linalg.expm(gen * t) @ p0
        na = np.array([a for a in range(nmax) for _ in range(nmax)])
        nb = np.array([b for _ in range(nmax) for b in range(nmax)])
        diff_mode = float(((na - nb) * pt).sum())
        assert diff_mode == pytest.approx(
            (v0 - v1) * math.exp((mu - 2 * w) * t), rel=1e-8
        )

    def test_log_gf_conservation(self):
        spec = gaussian_spec(kind="BrownianTree", mu=0.5, D=1.0, mass=5.0)
        for t in np.linspace(0, 1.0, 20):
            val = brownian_tree_log_gf(spec, unit_query(spec, t), steps=40)
            assert abs(val) <= 1e-9

    def test_log_gf_static_closed_form(self):
        spec = gaussian_spec(kind="BrownianTree", mu=0.8, D=0.0, mass=5.0)
        t = 0.7
        g = spec.grid()
        u = g.with_values(np.full(N, 0.9))
        got = brownian_tree_log_gf(spec, GFQuery(u=u, t=t))
        w = 0.9 * math.exp(-0.8 * t) / (1 - 0.9 * (1 - math.exp(-0.8 * t)))
        ref = np.sum(g.values * (w - 1)) * g.cell_volume
        assert got == pytest.approx(ref, rel=1e-12)

    def test_density_is_gf_derivative(self):
        # cross-validates the PDE-based GF against the series density
        spec = gaussian_spec(kind="BrownianTree", mu=0.5, D=1.0, mass=5.0)
        t = 0.4
        dens = brownian_tree_density(spec, t)
        idx = N // 2
        ds = []
        for eps in (1e-3, 1e-4):
            hi = brownian_tree_log_gf(spec, unit_query(spec, t, bump=idx, eps=eps))
            lo = brownian_tree_log_gf(spec, unit_query(spec, t, bump=idx, eps=-eps))
            ds.append((hi - lo) / (2 * eps))
        h1, h2 = 1e-3, 1e-4
        rich = (h1 ** 2 * ds[1] - h2 ** 2 * ds[0]) / (h1 ** 2 - h2 ** 2)
        assert rich == pytest.approx(dens.values[idx], rel=1e-6)

    def test_series_divergence(self):
        spec = gaussian_spec(kind="BrownianTree", mu=1.0, D=0.0, mass=5.0)
        u = spec.grid().with_values(np.full(N, 3.0))
        with pytest.raises(SeriesDivergence):
            brownian_tree_log_gf(spec, GFQuery(u=u, t=5.0))
        spec2 = gaussian_spec(kind="BrownianTree", mu=1.0, D=1.0, mass=5.0)
        with pytest.raises(SeriesDivergence):
            brownian_tree_log_gf(
                spec2, GFQuery(u=spec2.grid().with_values(np.full(N, 3.0)), t=5.0),
                steps=100,
            )


class TestConvertAB:
    def spec(self, mu):
        g = FieldGrid((L,), np.zeros(N), POSITION)
        va = g.with_values(wrapped_gaussian(g, 8.0, 1.0, 4.0))
        vb = g.with_values(wrapped_gaussian(g, 2.0, 1.5, 7.0))
        return ModelSpec("ConvertAB", (L,), 0.0, {"mu": mu}, va, vb=vb)

    def test_t0(self):
        spec = self.spec(Rate(const=0.9))
        xa, xb = convert_ab_densities(spec, 0.0)
        assert np.allclose(xa.values, spec.v.values)
        assert np.allclose(xb.values, spec.vb.values)

    def test_mass_conservation_and_long_time(self):
        x = np.arange(N) * (L / N)
        mu = Rate(const=0.5, table=tuple(1 + np.sin(2 * np.pi * x / L) ** 2))
        spec = self.spec(mu)
        tot0 = spec.v.values + spec.vb.values
        for t in (0.2, 1.0, 5.0):
            xa, xb = convert_ab_densities(spec, t)
            assert np.max(np.abs(xa.values + xb.values - tot0)) < 1e-12
        xa, xb = convert_ab_densities(spec, 1e6)
        assert np.max(xa.values) < 1e-12
        assert np.max(np.abs(xb.values - tot0)) < 1e-12

    def test_spatially_varying_decay(self):
        x = np.arange(N) * (L / N)
        prof = 1 + np.cos(2 * np.pi * x / L) ** 2
        spec = self.spec(Rate(const=0.7, table=tuple(prof)))
        t = 0.8
        xa, _ = convert_ab_densities(spec, t)
        ref = spec.v.values * np.exp(-0.7 * prof * t)
        assert np.max(np.abs(xa.values - ref)) < 1e-12


class TestTimeDependent:
    def base(self, rates):
        g = FieldGrid((L,), np.zeros(N), POSITION)
        v = g.with_values(wrapped_gaussian(g, 6.0, 1.0, L / 2))
        return ModelSpec("SpontBirth", (L,), 0.0, rates, v)

    def test_spont_birth_constant(self):
        spec = self.base({"mu": Rate(const=0.3)})
        out = spont_birth_density(spec, 2.0)
        assert np.max(np.abs(out.values - (spec.v.values + 0.6))) < 1e-10

    def test_spont_birth_sin2(self):
        x = np.arange(N) * (L / N)
        gprof = 0.5 + 0.5 * np.cos(2 * np.pi * x / L) ** 2
        spec = self.base({"mu": Rate(table=tuple(gprof), time="sin2")})
        t = 1.7
        out = spont_birth_density(spec, t)
        cum = t / 2 - math.sin(2 * t) / 4
        ref = spec.v.values + gprof * cum
        assert np.max(np.abs(out.values - ref)) < 1e-9

    def test_birth_death_reduces_to_spont_birth(self):
        rates = {"mu": Rate(const=0.4, time="sin2"), "nu": Rate(const=0.0)}
        spec = self.base(rates)
        a = birth_death_timedep_density(spec, 1.3)
        b = spont_birth_density(
            ModelSpec("SpontBirth", spec.box, 0.0, {"mu": rates["mu"]}, spec.v), 1.3
        )
        assert np.max(np.abs(a.values - b.values)) < 1e-7

    def test_birth_death_pure_decay(self):
        rates = {"mu": Rate(const=0.0), "nu": Rate(const=0.9)}
        spec = self.base(rates)
        out = birth_death_timedep_density(spec, 1.1)
        assert np.max(np.abs(out.values - spec.v.values * math.exp(-0.99))) < 1e-12

    def test_birth_death_constant_closed_form(self):
        mu, nu, t = 0.7, 1.3, 0.9
        rates = {"mu": Rate(const=mu), "nu": Rate(const=nu)}
        spec = self.base(rates)
        out = birth_death_timedep_density(spec, t)
        ref = spec.v.values * math.exp(-nu * t) + (mu / nu) * (1 - math.exp(-nu * t))
        assert np.max(np.abs(out.values - ref)) < 1e-8


class TestDiscreteDeath:
    def test_gf_mean(self):
        v, mu, t = 5.0, 0.7, 0.6
        eps = 1e-6
        num = (discrete_death_gf(v, mu, t, 1 + eps) - discrete_death_gf(v, mu, t, 1 - eps)) / (2 * eps)
        assert num == pytest.approx(discrete_death_mean(v, mu, t), rel=1e-8)

    def test_t0_poisson(self):
        v = 3.0
        for u in (0.0, 0.4, 1.0):
            assert discrete_death_gf(v, 2.0, 0.0, u) == pytest.approx(
                math.exp((u - 1) * v)
            )

    def test_distribution_vs_master_equation(self):
        v, mu, t, nmax = 5.0, 0.7, 0.6, 200
        gen = np.zeros((nmax + 1, nmax + 1))
        for n in range(nmax + 1):
            gen[n, n] = -mu * n
            if n > 0:
                gen[n - 1, n] = mu * n
        p0 = stats.poisson.pmf(np.arange(nmax + 1), v)
        pt = linalg.expm(gen * t) @ p0
        pred = discrete_death_pmf(v, mu, t, nmax)
        assert np.max(np.abs(pt - pred)) <= 1e-8


class TestJsonAndCsv:
    def test_round_trip_spec(self):
        text = """
        {"kind": "DeathDiffusion", "d": 1, "box": [10.0], "shape": [64],
         "D": 1.0, "rates": {"mu": {"const": 1.0}},
         "v": {"expr": "gaussian", "mass": 20, "width": 1.0, "center": [5.0]}}
        """
        spec = ModelSpec.from_json(text)
        assert spec.kind == "DeathDiffusion"
        assert spec.grid().integral() == pytest.approx(20.0, rel=1e-10)

    def test_bad_kind(self):
        with pytest.raises(ModelError):
            ModelSpec("Nope", (1.0,), 0.0, {}, position_grid((1.0,), np.zeros(4)))

    def test_kinds_table_holds_every_accepted_kind(self):
        g = position_grid((1.0,), np.ones(4))
        assert set(KINDS) == {"DeathDiffusion", "BrownianTree", "ConvertAB", "SpontBirth",
                              "BirthDeathTimeDep", "DiscreteDeath", "Annihilation"}
        for kind in KINDS:
            assert ModelSpec(kind, (1.0,), 0.0, {}, g).kind == kind
        assert {k for k, c in KINDS.items() if c.density is None} == {"Annihilation"}
        assert {k for k, c in KINDS.items() if c.log_gf is not None} == {
            "DeathDiffusion", "BrownianTree", "DiscreteDeath"}

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelError):
            Rate(const=-1.0)
        with pytest.raises(ModelError):
            Rate(table=(1.0, -0.5))

    @pytest.mark.parametrize("rate", ["fast", [2.0], True])
    def test_rate_must_be_number_or_object(self, rate):
        with pytest.raises(ModelError):
            Rate.from_json(rate)

    def test_csv_header_and_values(self):
        spec = gaussian_spec()
        text = density_csv(spec, [0.0])
        lines = text.strip().split("\n")
        assert lines[0].startswith("# model,DeathDiffusion")
        assert lines[1] == "t,x0,value"
        first = lines[2].split(",")
        assert float(first[2]) == pytest.approx(spec.grid().values[0])
