"""Tests for closed-form model evaluators, against independent oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, linalg, stats

from rdito.grid import FieldGrid, full_spectrum, half_fft, half_ifft, half_spectrum
from rdito.models import (
    KINDS,
    ModelError,
    ModelSpec,
    NonconstantRate,
    Rate,
    SeriesDivergence,
    Unsupported,
    birth_death_timedep_density,
    births,
    brownian_tree_density,
    brownian_tree_log_gf,
    closed_form,
    convert_ab_densities,
    death_diffusion_density,
    death_diffusion_fn,
    death_diffusion_log_gf,
    density,
    density_csv,
    diffuse,
    discrete_death_mean,
    image_sum,
    wrapped_gaussian,
)
from oracles import DegenerateTime, discrete_death_gf, heat_kernel, stirling2, to_position

L, N = 10.0, 64


def position_grid(box, values) -> FieldGrid:
    return FieldGrid(tuple(np.atleast_1d(box)), np.asarray(values, float))


def sample_function(box, shape, f) -> FieldGrid:
    """Sample f(x1, ..., xd) on the grid; f must accept broadcast arrays."""
    box = tuple(np.atleast_1d(box))
    g = FieldGrid(box, np.zeros(tuple(shape)))
    mesh = np.meshgrid(*g.axes(), indexing="ij")
    return g.with_values(np.asarray(f(*mesh), float))


def gaussian_spec(kind="DeathDiffusion", mu=1.0, D=1.0, mass=20.0, **kw):
    g = FieldGrid((L,), np.zeros(N))
    v = g.with_values(wrapped_gaussian(g, mass, 1.0, L / 2))
    return ModelSpec(kind=kind, box=(L,), D=D, rates={"mu": Rate(const=mu)}, v=v, **kw)


def unit_query(spec, t, bump=None, eps=0.0):
    g = spec.grid()
    u = np.ones(g.shape)
    if bump is not None:
        u[bump] += eps / g.cell_volume
    return g.with_values(u), t


class TestFieldGrid:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for shape, box in [((64,), (10.0,)), ((16, 24), (4.0, 6.0))]:
            g = FieldGrid(box, rng.normal(size=shape))
            back = to_position(g, g.to_momentum())
            assert np.max(np.abs(back - g.values)) < 1e-12 * max(
                1.0, np.max(np.abs(g.values))
            )

    @pytest.mark.parametrize("shape", [(64,), (63,), (1,), (24, 24), (25, 18), (4, 3, 5)])
    def test_half_spectrum_pair(self, shape):
        rng = np.random.default_rng(3)
        x = rng.normal(size=shape)
        full = np.fft.fftn(x)
        xh = half_fft(x)
        assert np.max(np.abs(xh - half_spectrum(full))) < 1e-12
        assert np.max(np.abs(full_spectrum(xh, shape[-1]) - full)) < 1e-12
        assert np.max(np.abs(half_ifft(xh, shape) - x)) < 1e-14
        # a leading axis is a batch of independent fields
        both = half_ifft(np.stack([xh, 2 * xh]), shape)
        assert np.max(np.abs(both - np.stack([x, 2 * x]))) < 1e-13

    def test_momentum_zero_mode_is_integral(self):
        g = sample_function((10.0,), (64,), lambda x: np.exp(-((x - 5) ** 2)))
        assert g.to_momentum()[0].real == pytest.approx(g.integral(), rel=1e-12)

    def test_shape_box_mismatch(self):
        with pytest.raises(ValueError):
            FieldGrid((1.0, 2.0), np.zeros(8))

    @pytest.mark.parametrize("values", [
        np.array([1 + 1j, 2]), np.array([1.0, 2.0], complex), [1.0, 2j],
    ], ids=["complex", "zero-imaginary", "list"])
    def test_complex_values_refused(self, values):
        """A FieldGrid holds position samples; a spectrum handed to it is an
        error, not cut to its real part."""
        with pytest.raises(ValueError, match="complex"):
            FieldGrid((1.0,), values)
        with pytest.raises(ValueError, match="complex"):
            FieldGrid((1.0,), np.zeros(2)).with_values(values)


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
            g = FieldGrid(box, np.zeros(tuple(rng.integers(1, 65, dim))))
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
        got = death_diffusion_log_gf(spec, u, 0.0)
        ref = np.sum((u.values - 1) * spec.grid().values) * spec.grid().cell_volume
        assert got == pytest.approx(ref, rel=1e-12)

    def test_probability_conservation(self):
        spec = gaussian_spec()
        for t in np.linspace(0, 3, 20):
            assert abs(death_diffusion_log_gf(spec, *unit_query(spec, t))) <= 1e-9

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
                    spec, *unit_query(spec, t, bump=idx, eps=eps)
                )
                lo = death_diffusion_log_gf(
                    spec, *unit_query(spec, t, bump=idx, eps=-eps)
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

    def test_fn_is_periodic(self):
        """A point boxes away read 0: image_sum saw no image near it."""
        spec = gaussian_spec(mu=0.7, D=0.9)
        for p in (4.1, 0.3):
            ref = death_diffusion_fn(spec, [[p], [p + 1.0]], 0.6)
            for shift in (10 * L, -100 * L):
                got = death_diffusion_fn(spec, [[p + shift], [p + 1.0 - shift]], 0.6)
                assert got == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("t", [0.0, 0.6])
    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_fn_refuses_a_point_that_is_not_finite(self, t, p):
        with pytest.raises(ModelError, match="not finite"):
            death_diffusion_fn(gaussian_spec(mu=0.7, D=0.9), [[2.0], [p]], t)

    def test_nonconstant_rate_rejected(self):
        g = FieldGrid((L,), np.zeros(N))
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

    @pytest.mark.parametrize("mu, v", [(800.0, 1.0), (700.0, 1e10)])
    def test_density_overflow_refused(self, mu, v):
        """e^{800} overflows; e^{700} does not, but 1e10 e^{700} does, and was
        written as inf with exit 0 and a numpy warning."""
        spec = ModelSpec("BrownianTree", (L,), 0.0, {"mu": Rate(const=mu)},
                         position_grid((L,), np.full(N, v)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="overflows at mu t = "):
                brownian_tree_density(spec, 1.0)

    def test_log_gf_conservation(self):
        spec = gaussian_spec(kind="BrownianTree", mu=0.5, D=1.0, mass=5.0)
        for t in np.linspace(0, 1.0, 20):
            val = brownian_tree_log_gf(spec, *unit_query(spec, t), steps=40)
            assert abs(val) <= 1e-9

    def test_log_gf_static_closed_form(self):
        spec = gaussian_spec(kind="BrownianTree", mu=0.8, D=0.0, mass=5.0)
        t = 0.7
        g = spec.grid()
        u = g.with_values(np.full(N, 0.9))
        got = brownian_tree_log_gf(spec, u, t)
        w = 0.9 * math.exp(-0.8 * t) / (1 - 0.9 * (1 - math.exp(-0.8 * t)))
        ref = np.sum(g.values * (w - 1)) * g.cell_volume
        assert got == pytest.approx(ref, rel=1e-12)

    def test_density_is_gf_derivative(self):
        # cross-validates the PDE-based GF against the closed-form density
        spec = gaussian_spec(kind="BrownianTree", mu=0.5, D=1.0, mass=5.0)
        t = 0.4
        dens = brownian_tree_density(spec, t)
        idx = N // 2
        ds = []
        for eps in (1e-3, 1e-4):
            hi = brownian_tree_log_gf(spec, *unit_query(spec, t, bump=idx, eps=eps))
            lo = brownian_tree_log_gf(spec, *unit_query(spec, t, bump=idx, eps=-eps))
            ds.append((hi - lo) / (2 * eps))
        h1, h2 = 1e-3, 1e-4
        rich = (h1 ** 2 * ds[1] - h2 ** 2 * ds[0]) / (h1 ** 2 - h2 ** 2)
        assert rich == pytest.approx(dens.values[idx], rel=1e-6)

    def test_log_gf_one_step_where_a_substep_is_the_identity(self):
        """At mu = 0 the reaction substep is the identity and at t = 0 both
        are, so one Strang step is exact."""
        spec = gaussian_spec(kind="BrownianTree", mu=0.0, D=1.0, mass=5.0)
        g = spec.grid()
        u = g.with_values(0.5 + 0.4 * np.cos(2 * np.pi * np.arange(N) / N))
        t = 0.7
        ref = np.sum(u.values * diffuse(g, 1.0, t).values - g.values) * g.cell_volume
        assert brownian_tree_log_gf(spec, u, t) == pytest.approx(ref, rel=1e-12)
        ref0 = np.sum(g.values * (u.values - 1)) * g.cell_volume
        assert brownian_tree_log_gf(spec, u, 0.0) == pytest.approx(ref0, rel=1e-12)

    @pytest.mark.parametrize("t, steps", [(65.6, None), (1.0, 2 ** 18 + 1)])
    def test_log_gf_refuses_past_the_step_cap(self, t, steps):
        """max(200, 4000 t) steps passes 2^18 at t > 65.536; refused at once."""
        spec = gaussian_spec(kind="BrownianTree", mu=1.0, D=1.0)
        u = spec.grid().with_values(np.full(N, 0.5))
        with pytest.raises(ModelError, match=r"2\^18"):
            brownian_tree_log_gf(spec, u, t, steps=steps)

    def test_series_divergence(self):
        spec = gaussian_spec(kind="BrownianTree", mu=1.0, D=0.0, mass=5.0)
        u = spec.grid().with_values(np.full(N, 3.0))
        with pytest.raises(SeriesDivergence):
            brownian_tree_log_gf(spec, u, 5.0)
        spec2 = gaussian_spec(kind="BrownianTree", mu=1.0, D=1.0, mass=5.0)
        with pytest.raises(SeriesDivergence):
            brownian_tree_log_gf(
                spec2, spec2.grid().with_values(np.full(N, 3.0)), 5.0,
                steps=100,
            )


class TestConvertAB:
    def spec(self, mu):
        g = FieldGrid((L,), np.zeros(N))
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

    def test_time_profile(self):
        """The decay is e^{-int_0^t mu}: with mu = sin^2 and t = 1 it read
        e^{-1}, where the integral is 1/2 - sin(2)/4."""
        spec = self.spec(Rate(const=1.0, time="sin2"))
        decay = math.exp(-(0.5 - math.sin(2.0) / 4))
        xa, xb = convert_ab_densities(spec, 1.0)
        assert np.allclose(xa.values, spec.v.values * decay, rtol=1e-12, atol=0)
        assert np.allclose(xb.values, spec.vb.values + spec.v.values * (1 - decay),
                           rtol=1e-12, atol=0)


class TestTimeDependent:
    def base(self, rates):
        g = FieldGrid((L,), np.zeros(N))
        v = g.with_values(wrapped_gaussian(g, 6.0, 1.0, L / 2))
        return ModelSpec("SpontBirth", (L,), 0.0, rates, v)

    def test_spont_birth_constant(self):
        spec = self.base({"mu": Rate(const=0.3)})
        out = birth_death_timedep_density(spec, 2.0)
        assert np.max(np.abs(out.values - (spec.v.values + 0.6))) < 1e-10

    def test_spont_birth_sin2(self):
        x = np.arange(N) * (L / N)
        gprof = 0.5 + 0.5 * np.cos(2 * np.pi * x / L) ** 2
        spec = self.base({"mu": Rate(table=tuple(gprof), time="sin2")})
        t = 1.7
        out = birth_death_timedep_density(spec, t)
        cum = t / 2 - math.sin(2 * t) / 4
        ref = spec.v.values + gprof * cum
        assert np.max(np.abs(out.values - ref)) < 1e-9

    def test_birth_death_reduces_to_spont_birth(self):
        """With nu = 0 no cell takes the quadrature: the births are
        g_mu int_0^t h_mu, value for value the SpontBirth density."""
        rates = {"mu": Rate(const=0.4, time="sin2"), "nu": Rate(const=0.0)}
        spec = self.base(rates)
        a = birth_death_timedep_density(
            ModelSpec("BirthDeathTimeDep", spec.box, 0.0, rates, spec.v), 1.3)
        b = density(ModelSpec("SpontBirth", spec.box, 0.0, {"mu": rates["mu"]}, spec.v), 1.3)
        assert np.array_equal(a.values, b.values)
        cum = (1.3 - math.sin(2.6) / 2) / 2
        assert np.allclose(a.values, spec.v.values + 0.4 * cum, rtol=1e-15, atol=0)

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

    @pytest.mark.parametrize("time", ["one", "sin2", "cos2"])
    @pytest.mark.parametrize("t0", [0.0, 0.7, 3.1])
    @pytest.mark.parametrize("length", [1e-9, 1e-4, 0.5, 2.0, 20.0])
    def test_temporal_integral_matches_quad(self, time, t0, length):
        h = PROFILES[time]
        ref, _ = integrate.quad(h, t0, t0 + length, epsabs=1e-14, epsrel=1e-13, limit=200)
        assert abs(Rate(time=time).temporal_integral(t0, t0 + length) - ref) <= 1e-13

    @pytest.mark.parametrize("t", [0.3, 1.7, 6.0])
    @pytest.mark.parametrize("mu_time, nu_time", [
        ("sin2", "cos2"), ("cos2", None), (None, "sin2"), ("one", "sin2")])
    def test_birth_death_matches_nested_quad(self, t, mu_time, nu_time):
        x = np.arange(N) * (L / N)
        prof = tuple(0.5 + 0.5 * np.cos(2 * np.pi * x / L) ** 2)
        spec = self.base({"mu": Rate(const=0.7, table=prof, time=mu_time),
                          "nu": Rate(const=1.3, table=prof[::-1], time=nu_time)})
        out = birth_death_timedep_density(spec, t).values
        assert np.max(np.abs(out - nested_quad_density(spec, t))) <= 1e-8

    def test_birth_death_resolves_a_thin_layer_of_births(self):
        """With death rate 400 over t = 100, births survive only in the last
        1/400 before t; a rule that never samples there sees no births."""
        spec = self.base({"mu": Rate(const=1.0), "nu": Rate(const=400.0)})
        out = birth_death_timedep_density(spec, 100.0)
        assert np.max(np.abs(out.values - 1 / 400)) < 1e-12

    @pytest.mark.parametrize("rates, t", [
        ({"mu": Rate(const=1.0), "nu": Rate(const=1e6)}, 1.0),
        ({"mu": Rate(const=1.0, time="sin2"), "nu": Rate(const=1.0)}, 1e6),
    ])
    def test_birth_death_refuses_what_its_rule_cannot_resolve(self, rates, t):
        with pytest.raises(ModelError, match="birth integral"):
            birth_death_timedep_density(self.base(rates), t)

    @pytest.mark.parametrize("t0, t1", [(0.3, 0.8), (2.0, 8.0)])
    @pytest.mark.parametrize("gnu", [0.3, 7.0, 400.0])
    @pytest.mark.parametrize("mu_time, nu_time",
                             list(itertools.product([None, "sin2", "cos2"], repeat=2)))
    def test_births_match_nested_quad(self, t0, t1, gnu, mu_time, nu_time):
        rates = {"mu": Rate(const=0.7, time=mu_time), "nu": Rate(const=gnu, time=nu_time)}
        spec = self.base(rates)
        spec = ModelSpec(spec.kind, spec.box, 0.0, rates, spec.v.with_values(np.zeros(N)))
        got = births(rates["mu"], rates["nu"], (N,), t0, t1)
        ref = nested_quad_density(spec, t1, t0, QUAD_TIGHT)
        assert np.all(np.abs(got - ref) <= np.maximum(1e-12 * np.abs(ref), 1e-16))

    @pytest.mark.parametrize("mu_time, nu_time", [(None, None), ("sin2", "cos2"), ("cos2", None)])
    def test_births_continue_the_density(self, mu_time, nu_time):
        """X(t1) = X(t0) e^{-N(t0,t1)} + births(t0, t1): the Monte Carlo's
        births over one step are the closed form's over that interval."""
        x = np.arange(N) * (L / N)
        prof = tuple(0.5 + 0.5 * np.cos(2 * np.pi * x / L) ** 2)
        mu, nu = Rate(const=0.7, table=prof, time=mu_time), Rate(const=1.3, time=nu_time)
        spec = self.base({"mu": mu, "nu": nu})
        for t0, t1 in ((0.4, 0.41), (0.9, 2.3), (1.0, 9.0)):
            x0 = birth_death_timedep_density(spec, t0).values
            x1 = birth_death_timedep_density(spec, t1).values
            step = x0 * np.exp(-1.3 * nu.temporal_integral(t0, t1)) + births(mu, nu, (N,), t0, t1)
            assert np.allclose(step, x1, rtol=1e-12, atol=0)

    def test_births_without_death_broadcast_the_exact_integral(self):
        mu = Rate(const=0.4, time="sin2")
        out = births(mu, Rate(const=0.0), (N,), 0.3, 0.8)
        assert out.shape == (N,) and np.all(out == 0.4 * mu.temporal_integral(0.3, 0.8))

    @pytest.mark.parametrize("t1, answered", [(65536.0, True), (65537.0, False)])
    def test_births_refuse_past_2_16_panels(self, t1, answered):
        """At a constant death rate 1 a panel is one unit wide: t1 = 65,536
        takes 2^16 panels and the next unit is refused."""
        def run():
            return births(Rate(), Rate(const=1.0), (), 0.0, t1)
        if answered:
            assert float(run()) == pytest.approx(1.0, rel=1e-12)
        else:
            with pytest.raises(ModelError, match="birth integral"):
                run()

    def test_birth_without_death_is_exact_at_long_times(self):
        """With nu = 0 the births are int_0^t sin^2 = (t - sin 2t / 2) / 2
        exactly; the quadrature refused t = 1e6 for want of panels."""
        t = 1e6
        spec = self.base({"mu": Rate(const=1.0, time="sin2"), "nu": Rate(const=0.0)})
        out = birth_death_timedep_density(spec, t)
        ref = spec.v.values + (t - math.sin(2 * t) / 2) / 2
        assert np.allclose(out.values, ref, rtol=1e-15, atol=0)


PROFILES = {None: lambda s: 1.0, "one": lambda s: 1.0,
            "sin2": lambda s: math.sin(s) ** 2, "cos2": lambda s: math.cos(s) ** 2}


# (epsabs, epsrel) of nested_quad_density's outer integral and of its N: a
# loose pair, and one at 1e-13 relative, near the tightest quad reaches here
# without warning of roundoff
QUAD_LOOSE = ((1e-8, 1e-8), (1e-10, 1e-10))
QUAD_TIGHT = ((0.0, 1e-13), (0.0, 1e-13))


def nested_quad_density(spec, t, t0=0.0, tol=QUAD_LOOSE):
    """v e^{-N(t0,t)} + integral_t0^t mu(s) e^{-N(s,t)} ds with both the outer
    integral and the cumulative death N by adaptive quadrature; the outer
    one is split where 1, 4, 16 and 64 decay lengths 1/g_nu remain, so a
    thin layer of births is seen."""
    (outer_abs, outer_rel), (cum_abs, cum_rel) = tol

    def cum(time, a, b):
        return integrate.quad(PROFILES[time], a, b, epsabs=cum_abs, epsrel=cum_rel)[0]

    g = spec.grid()
    mu, nu = spec.rates["mu"], spec.rates["nu"]
    gmu, gnu = mu.spatial(g.shape), nu.spatial(g.shape)
    out = g.values * np.exp(-gnu * cum(nu.time, t0, t))
    born = {}
    for gm, gn in set(zip(gmu, gnu)):
        splits = [t - k / gn for k in (1, 4, 16, 64) if gn > 0 and t - k / gn > t0]
        born[gm, gn], _ = integrate.quad(
            lambda s: gm * PROFILES[mu.time](s) * math.exp(-gn * cum(nu.time, s, t)),
            t0, t, epsabs=outer_abs, epsrel=outer_rel, limit=200, points=splits or None)
    return out + np.array([born[pair] for pair in zip(gmu, gnu)])


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

    def test_time_profile(self):
        """v = 5 and mu = sin^2 at t = 1 gave 5 e^{-1} = 1.8394 for the mean;
        it is 5 e^{-(1/2 - sin(2)/4)} = 3.8067."""
        spec = ModelSpec("DiscreteDeath", (), 0.0, {"mu": Rate(const=1.0, time="sin2")}, 5.0)
        mean = 5.0 * math.exp(-(0.5 - math.sin(2.0) / 4))
        assert density(spec, 1.0) == pytest.approx(mean, rel=1e-12, abs=0)
        assert KINDS["DiscreteDeath"].log_gf(spec, 0.3, 1.0) == pytest.approx(
            -0.7 * mean, rel=1e-12, abs=0)

    def test_log_gf_has_no_underflow(self):
        """exp((u-1) v) underflows to 0 past (u-1) v = -745; its log does not."""
        spec = ModelSpec("DiscreteDeath", (), 0.0, {"mu": Rate(const=0.0)}, 1000.0)
        assert KINDS["DiscreteDeath"].log_gf(spec, 0.0, 0.0) == -1000.0

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


def discrete_death_pmf(v: float, mu: float, t: float, nmax: int) -> np.ndarray:
    """P(N=n) for n = 0..nmax: the GF exp((u-1) v e^{-mu t}) is Poisson's."""
    return stats.poisson.pmf(np.arange(nmax + 1), discrete_death_mean(v, mu, t))


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

    def test_closed_form_refuses_what_the_kind_lacks(self):
        g = position_grid((1.0,), np.ones(4))
        for kind, entry in KINDS.items():
            spec = ModelSpec(kind, (1.0,), 0.0, {}, g)
            for what in ("density", "log_gf", "fn"):
                if getattr(entry, what) is None:
                    with pytest.raises(Unsupported, match=f"no closed-form {what} for kind {kind}"):
                        closed_form(spec, what)
                else:
                    assert closed_form(spec, what) is getattr(entry, what)
        assert {k for k, c in KINDS.items() if c.fn is not None} == {"DeathDiffusion"}
        assert {k for k, c in KINDS.items() if c.pairs} == {"Annihilation"}

    @pytest.mark.parametrize("kind, evaluate", [
        ("ConvertAB", convert_ab_densities), ("SpontBirth", density),
        ("BirthDeathTimeDep", birth_death_timedep_density),
    ])
    def test_static_closed_forms_refuse_diffusion(self, kind, evaluate):
        """These closed forms leave diffusion out, so at D > 0 they would be
        wrong: the peak of a width-0.5 bump twice the Monte Carlo one."""
        g = position_grid((L,), np.ones(N))
        spec = ModelSpec(kind, (L,), 1.0, {"mu": Rate(const=1.0)}, g)
        with pytest.raises(Unsupported, match="D = 0 only"):
            evaluate(spec, 0.5)

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
