"""Tests for the perturbative solver against quadrature and MC oracles."""

import math

import mpmath
import numpy as np
import pytest
import sympy
from scipy import integrate

from rdito import algebra as alg
from rdito.grid import DENSE_CELLS, FieldGrid
from rdito.grid import dense_map, half_fft, half_ifft, half_spectrum, heat_change
from rdito.models import ModelSpec, Rate, wrapped_gaussian
from rdito.perturb import (
    GridTooCoarse,
    MomentumGrid,
    NonConvergence,
    PerturbError,
    TimeSeries,
    dyson_collision,
    dyson_tree_density,
    kernel_field,
    mean_field_pde,
    momentum_grid,
    simplex_time_factor,
    third_order_rates,
    third_order_term,
)
from rdito.simulate import RadialKernel, SimConfig, run
from oracles import THETA0, evaluate_scalar, final_field, full_values, propagator, to_position
from third_order_oracle import third_order_continuum


def gauss_fields(L=2 * math.pi, n=16, cR=0.7, sR=1.0, cv=2.0, sv=0.8, center=0.0):
    """Position-space Gaussian kernel/intensity whose transforms are Gaussian."""
    g = FieldGrid((L,), np.zeros(n))
    R = g.with_values(wrapped_gaussian(g, cR, sR, [0.0]))
    v = g.with_values(wrapped_gaussian(g, cv, sv, [center]))
    return g, R, v


def annih_spec(g, R, v, D):
    return ModelSpec(
        "Annihilation", g.box, D, {"R": Rate(const=1.0, table=tuple(R.values))}, v
    )


def direct_sum_dyson(grid, t_end, steps):
    """Reference Dyson recursion that re-sums the whole trapezoid history at
    every step (O(steps^2)); returns the (steps+1, *grid) momentum fields."""
    dt = t_end / steps
    k2, rhat, dV = grid.grid.ksquared(), np.real(grid.Rhat), grid.grid.cell_volume

    def collision(xh):
        x, rx = np.fft.ifftn(xh) / dV, np.fft.ifftn(rhat * xh) / dV
        return np.fft.fftn(x * rx) * dV

    xs = [np.asarray(grid.vhat, complex)]
    colls = [collision(xs[0])]
    for i in range(1, steps + 1):
        hist = sum((0.5 if j == 0 else 1.0) * np.exp(-grid.D * (i - j) * dt * k2) * c
                   for j, c in enumerate(colls))
        base = np.exp(-grid.D * i * dt * k2) * xs[0] - dt * hist
        x = np.exp(-grid.D * dt * k2) * xs[-1]
        for _ in range(50):
            xn = base - 0.5 * dt * collision(x)
            done = np.max(np.abs(xn - x)) < 1e-10
            x = xn
            if done:
                break
        colls.append(collision(x))
        xs.append(x)
    return np.array(xs)


def full_spectrum_mean_field(spec, t_end, steps):
    """Reference mean-field PDE on full complex spectra (np.fft.fftn/ifftn):
    the Strang splitting and RK4 of mean_field_pde without the half-spectrum
    transforms; returns the (steps+1, *grid) position fields."""
    g = spec.grid()
    rhat = np.fft.fftn(kernel_field(spec).values) * g.cell_volume
    dt = t_end / steps
    heat = np.exp(-spec.D * g.ksquared() * dt / 2.0)

    def diffuse(x):
        return np.real(np.fft.ifftn(heat * np.fft.fftn(x)))

    def rhs(x):
        return -x * np.real(np.fft.ifftn(rhat * np.fft.fftn(x)))

    xs = [np.asarray(g.values, float)]
    for _ in range(steps):
        x = diffuse(xs[-1])
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        xs.append(diffuse(x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)))
    return np.array(xs)


def gauss_spec_nd(box, shape, center, D=0.7):
    """Annihilation spec: kernel of mass 0.8 and width 0.6 at the origin,
    intensity of mass 8 and width 1 at `center`.  Centred at 0 or L/2 on
    every axis, the intensity is even on the grid and so is its transform,
    and a mirror X(-k) = conj X(k) that forgot to negate k would pass; other
    centres give transforms that are not even."""
    g = FieldGrid(box, np.zeros(shape))
    R = g.with_values(wrapped_gaussian(g, 0.8, 0.6, [0.0] * len(box)))
    v = g.with_values(wrapped_gaussian(g, 8.0, 1.0, center))
    return annih_spec(g, R, v, D)


def memory_form_density(spec, t_end, steps):
    """Density under the literal memory-kernel collision term.

    The collision rate at time t is the history integral
    int_0^t ds (e^{(t-s) D lap} X_s) (R * e^{(t-s) D lap} X_s),
    i.e. both factors are carried to the observation time by heat kernels.
    """
    g = spec.grid()
    rhat = np.fft.fftn(kernel_field(spec).values) * g.cell_volume
    k2 = g.ksquared()
    dt = t_end / steps

    def heat(xh, tau):
        return np.exp(-spec.D * k2 * tau) * xh

    def conv_pos(xh):
        return np.real(np.fft.ifftn(rhat * xh))

    hats = [np.fft.fftn(np.asarray(g.values, float))]
    for i in range(1, steps + 1):
        # history integral at the left endpoint, trapezoid over stored states
        coll = np.zeros(g.shape)
        for j in range(i):
            w = 0.5 if j in (0, i - 1) else 1.0
            ph = heat(hats[j], (i - 1 - j) * dt)
            coll += w * np.real(np.fft.ifftn(ph)) * conv_pos(ph)
        coll *= dt
        hats.append(heat(hats[-1], dt) - dt * np.fft.fftn(
            np.real(np.fft.ifftn(heat(np.fft.fftn(coll), dt)))
        ))
    return np.real(np.fft.ifftn(hats[-1]))


# ---------------------------------------------------------------------------
# Propagator
# ---------------------------------------------------------------------------


class TestPropagator:
    def test_time_ordering(self):
        assert propagator(1.0, 0.3, 0.7, 1.0) == 0.0

    def test_zero_momentum(self):
        assert propagator(0.0, 1.0, 0.2, 2.0) == 1.0
        assert propagator([0.0, 0.0], 1.0, 0.2, 2.0) == 1.0

    def test_equal_time_convention(self):
        assert propagator(3.0, 0.5, 0.5, 1.0) == THETA0

    def test_vector_momentum(self):
        val = propagator([1.0, 2.0], 0.9, 0.4, 0.7)
        assert val == pytest.approx(math.exp(-0.5 * 0.7 * 5.0), rel=1e-14)

    def test_symbolic_interaction_picture_derivation(self):
        """The engine's conjugation chain reproduces delta theta e^{-(t-s)Dk^2}.

        dA_k(t) = (1 + dL[g+]) dA (1 + dL[g-]) with g± = e^{±tDk^2} - 1 and
        dA†_l(s) = dA†[h] with h = e^{sDl^2}; the Ito product of the two is a
        dt-type scalar whose coefficient must be the propagator.
        """
        for name in ("one", "gplus", "gminus", "h"):
            alg.declare_kernel(name)
        dA = alg.make_family("A").instance(["one"])
        dAd = alg.make_family("Adag").instance(["h"])
        dLp = alg.make_family("Lambda").instance(["gplus"])
        dLm = alg.make_family("Lambda").instance(["gminus"])
        dAt = (
            dA
            + alg.ito_product(dLp, dA)
            + alg.ito_product(dA, dLm)
            + alg.ito_product(dLp, alg.ito_product(dA, dLm))
        )
        prod = alg.ito_product(dAt, dAd)
        D, k, t, s = 0.8, 1.3, 0.9, 0.35
        env = {
            "one": 1.0,
            "gplus": math.exp(t * D * k * k) - 1.0,
            "gminus": math.exp(-t * D * k * k) - 1.0,
            "h": math.exp(s * D * k * k),
        }
        assert evaluate_scalar(prod, env) == pytest.approx(
            propagator(k, t, s, D), rel=1e-12
        )
        # reversed time order: creator first, no contraction survives
        assert alg.ito_product(dAd, dAt).is_zero()
        # distinct momenta (distinct boxes): the delta kills the product
        dAd_q = alg.make_family("Adag").instance(["h"], site="q")
        assert alg.ito_product(dAt, dAd_q).is_zero()


# ---------------------------------------------------------------------------
# Simplex time factor
# ---------------------------------------------------------------------------


class TestSimplexTimeFactor:
    def test_single_interval(self):
        assert simplex_time_factor([2.0], 0.7) == pytest.approx(
            math.exp(-1.4), rel=1e-14
        )

    def test_two_rates_symbolic(self):
        a, b, t = 1.3, 0.4, 0.9
        s, av, bv, tv = sympy.symbols("s a b t", positive=True)
        exact = sympy.integrate(
            sympy.exp(-av * (tv - s)) * sympy.exp(-bv * s), (s, 0, tv)
        )
        expect = float(exact.subs({av: a, bv: b, tv: t}))
        assert simplex_time_factor([a, b], t) == pytest.approx(
            expect, rel=1e-12
        )
        assert expect == pytest.approx(
            (math.exp(-b * t) - math.exp(-a * t)) / (a - b), rel=1e-12
        )

    def test_confluent_triple(self):
        a, t = 1.0, 0.9
        assert simplex_time_factor([a, a, a], t) == pytest.approx(
            t ** 2 / 2 * math.exp(-a * t), rel=1e-12
        )

    def test_near_degenerate_continuity(self):
        a, t = 0.8, 1.1
        exact = simplex_time_factor([a, a], t)
        close = simplex_time_factor([a, a + 1e-11], t)
        assert close == pytest.approx(exact, rel=1e-9)

    def test_third_order_rates_vs_simplex_cubature(self):
        D, t = 0.6, 0.8
        rates = third_order_rates(D, 1.0, -2.0, 0.5, 1.5)

        def integrand(t1, t2, t3):
            return math.exp(
                -(t - t3) * rates[0]
                - (t3 - t2) * rates[1]
                - (t2 - t1) * rates[2]
                - t1 * rates[3]
            )

        val, err = integrate.tplquad(
            integrand,
            0.0,
            t,
            0.0,
            lambda t3: t3,
            0.0,
            lambda t3, t2: t2,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        got = simplex_time_factor(rates, t)
        assert got == pytest.approx(val, rel=1e-8)

    def test_convolution_recursion(self):
        rng = np.random.default_rng(7)
        t = 0.9
        rates = []
        for n in range(5):
            rates.append(float(rng.uniform(0.1, 3.0)))
            if n == 0:
                continue
            val, _ = integrate.quad(
                lambda s: math.exp(-rates[0] * (t - s))
                * simplex_time_factor(rates[1:], s),
                0.0,
                t,
                epsabs=1e-13,
                epsrel=1e-12,
            )
            assert simplex_time_factor(rates, t) == pytest.approx(
                val, rel=1e-9
            )

    def test_zero_time(self):
        assert simplex_time_factor([1.0, 2.0, 3.0], 0.0) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_validation(self):
        with pytest.raises(PerturbError):
            simplex_time_factor([], 0.5)
        with pytest.raises(PerturbError):
            simplex_time_factor([-1.0], 0.5)

    @staticmethod
    def partial_fractions_60_digits(rates, t):
        """sum_i e^{-a_i t} / prod_{j != i} (a_j - a_i) for distinct rates,
        in 60-digit arithmetic on the exact binary values of the rates: the
        cancellation at a gap g costs about n log10(1/g) of the 60 digits."""
        with mpmath.workdps(60):
            a = [mpmath.mpf(x) for x in rates]
            return float(mpmath.fsum(
                mpmath.exp(-ai * mpmath.mpf(t))
                / mpmath.fprod(aj - ai for j, aj in enumerate(a) if j != i)
                for i, ai in enumerate(a)))

    @pytest.mark.parametrize("gap", [1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("rates", [lambda g: [0.3, 0.3 + g, 0.3 + 2 * g, 1.7],
                                       lambda g: [1.0, 1.0 + g, 2.0, 3.0]],
                             ids=["cluster-of-three", "pair"])
    def test_near_confluent_vs_60_digit_reference(self, rates, gap):
        """Rates close but not equal, at gaps from 1e-8 to 1e-4: one
        evaluation must hold at every gap, with no tolerance between them."""
        r = rates(gap)
        assert simplex_time_factor(r, 0.9) == pytest.approx(
            self.partial_fractions_60_digits(r, 0.9), rel=1e-12
        )

    def test_batch_equals_rows(self):
        rng = np.random.default_rng(11)
        rates = rng.uniform(0.0, 4.0, size=(40, 4))
        rates[:10, 1] = rates[:10, 0]  # equal rates
        rates[10:20, 2] = rates[10:20, 1] + 1e-7  # near-equal rates
        rates[20:25] = 0.0
        got = simplex_time_factor(rates, 0.7)
        assert got.shape == (40,)
        rows = np.array([simplex_time_factor(r, 0.7) for r in rates])
        np.testing.assert_allclose(got, rows, rtol=1e-13, atol=0)
        np.testing.assert_allclose(simplex_time_factor(rates.reshape(4, 10, 4), 0.7),
                                   got.reshape(4, 10), rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# Third-order diagram
# ---------------------------------------------------------------------------


class TestThirdOrder:
    def test_zero_kernel(self):
        g, R, v = gauss_fields()
        spec = annih_spec(g, R.with_values(np.zeros(g.shape)), v, 0.6)
        assert third_order_term(momentum_grid(spec), 1, 0.5) == 0.0

    def test_zero_intensity(self):
        g, R, v = gauss_fields()
        spec = annih_spec(g, R, v.with_values(np.zeros(g.shape)), 0.6)
        assert third_order_term(momentum_grid(spec), 1, 0.5) == 0.0

    def test_matches_continuum_oracle(self):
        """32-point d = 1 grid on a 4 pi box (periodic images below 1e-12) vs
        the Gauss-Hermite/expm continuum oracle, at other (k, t) than
        acceptance criterion 10."""
        cR, sR, cv, sv, D, t = 0.7, 1.0, 2.0, 0.8, 0.6, 0.3
        g, R, v = gauss_fields(L=4 * math.pi, n=32, cR=cR, sR=sR, cv=cv, sv=sv)
        mg = momentum_grid(annih_spec(g, R, v, D))
        kidx = 3
        got = third_order_term(mg, kidx, t)
        oracle = third_order_continuum(mg.grid.kaxes()[0][kidx], t, D, cR, sR, cv, sv)
        assert got == pytest.approx(oracle, rel=1e-9)

    def test_two_dimensional_value_is_pinned(self):
        """2-D 6x6 grid in a 2 pi x 2 pi box at k = (1, 0): the same diagram
        as the benchmark's third-order workload, and its value there."""
        g = FieldGrid((2 * math.pi,) * 2, np.zeros((6, 6)))
        R = g.with_values(wrapped_gaussian(g, 0.7, 2.0, [0.0, 0.0]))
        v = g.with_values(wrapped_gaussian(g, 2.0, 2.0, [0.0, 0.0]))
        mg = momentum_grid(annih_spec(g, R, v, 0.6))
        assert third_order_term(mg, (1, 0), 0.5) == pytest.approx(-1.3550284178e-04, rel=1e-9)

    def test_grid_too_coarse(self):
        # narrow position kernel -> wide transform -> fat boundary tail
        g, R, v = gauss_fields(sR=0.15)
        mg = momentum_grid(annih_spec(g, R, v, 0.6))
        with pytest.raises(GridTooCoarse):
            third_order_term(mg, 1, 0.5)


# ---------------------------------------------------------------------------
# Dyson recursion
# ---------------------------------------------------------------------------


class TestDyson:
    def test_free_diffusion(self):
        g, R, v = gauss_fields(L=10.0, n=64, sv=1.0, center=5.0)
        spec = annih_spec(g, R.with_values(np.zeros(g.shape)), v, 0.7)
        series = dyson_tree_density(spec, 0.4, 20)
        exact = np.exp(-0.7 * 0.4 * g.ksquared()) * v.to_momentum()
        assert np.max(np.abs(final_field(series) - exact)) < 1e-12

    def test_logistic_diffusion_limited(self):
        L, n, v0, Rbar, t = 10.0, 32, 1.7, 0.9, 1.0
        g = FieldGrid((L,), np.full(n, v0))
        tab = np.zeros(n)
        tab[0] = Rbar / g.cell_volume
        spec = ModelSpec(
            "Annihilation", (L,), 1.0, {"R": Rate(const=1.0, table=tuple(tab))}, g
        )
        series = dyson_tree_density(spec, t, 1000)
        x = to_position(g, final_field(series))
        exact = v0 / (1.0 + Rbar * v0 * t)
        assert np.max(np.abs(x - exact)) < 1e-6

    def test_matches_mean_field_pde(self):
        g, R, v = gauss_fields(L=10.0, n=64, cR=0.8, sR=0.6, cv=8.0, sv=1.0, center=5.0)
        spec = annih_spec(g, R, v, 0.7)
        t, steps = 0.4, 800
        dy = dyson_tree_density(spec, t, steps)
        mf = mean_field_pde(spec, t, steps)
        diff = np.max(np.abs(to_position(g, final_field(dy)) - final_field(mf)))
        assert diff < 1e-6

    def test_momentum_symmetry(self):
        g, R, v = gauss_fields(center=0.0)
        spec = annih_spec(g, R, v, 0.5)
        series = dyson_tree_density(spec, 0.3, 100)
        x = final_field(series)
        n = len(x)
        flipped = x[(-np.arange(n)) % n]
        assert np.max(np.abs(x - flipped)) < 1e-12

    def test_first_order_in_kernel(self):
        """First order in R equals one vertex dressed with free propagators."""
        L, n, D, t = 2 * math.pi, 8, 0.5, 0.1
        g = FieldGrid((L,), np.zeros(n))
        Rpos = wrapped_gaussian(g, 1.0, 0.7, [0.0])
        v = g.with_values(wrapped_gaussian(g, 0.8, 0.9, [L / 2]))
        vhat = v.to_momentum()
        eps = 1e-3

        def tilted(scale):
            """X at a kernel of scale * R; rates are >= 0, so scale is too."""
            spec = annih_spec(g, g.with_values(scale * Rpos), v, D)
            return final_field(dyson_tree_density(spec, t, 1000))

        # X(e) = X0 + e X1 + e^2 X2 + O(e^3), so this is X1 + O(eps^2)
        first = (4.0 * tilted(eps) - tilted(2.0 * eps) - 3.0 * tilted(0.0)) / (2.0 * eps)

        rh = g.with_values(Rpos).to_momentum().real
        vv = vhat
        kax = g.kaxes()[0]
        V = L
        for ik in range(n):
            kv = kax[ik]

            def part(s, real):
                tot = 0.0 + 0.0j
                for im in range(n):
                    iw = (ik - im) % n
                    tot += (
                        rh[im]
                        * propagator(kax[im], s, 0.0, D)
                        * vv[im]
                        * propagator(kax[iw], s, 0.0, D)
                        * vv[iw]
                    )
                val = propagator(kv, t, s, D) * tot / V
                return val.real if real else val.imag

            re, _ = integrate.quad(lambda s: part(s, True), 0, t, epsabs=1e-13)
            im, _ = integrate.quad(lambda s: part(s, False), 0, t, epsabs=1e-13)
            assert abs(first[ik] - (-(re + 1j * im))) < 1e-8

    @pytest.mark.parametrize("shape, center", [
        ((32,), (5.0,)), ((12, 12), (5.0, 5.0)), ((25, 18), (3.7, 6.1)),
    ], ids=["1", "2", "2-odd"])
    def test_matches_direct_history_sum(self, shape, center):
        """The carried-forward history on the half spectrum equals the direct
        trapezoid sum on full spectra; odd last axes exercise the mirror."""
        spec = gauss_spec_nd((10.0,) * len(shape), shape, center)
        got = full_values(dyson_tree_density(spec, 0.4, 200))
        assert np.max(np.abs(got - direct_sum_dyson(momentum_grid(spec), 0.4, 200))) <= 1e-12

    def test_nonconvergence(self):
        g = FieldGrid((10.0,), np.full(16, 50.0))
        tab = np.full(16, 1.0)
        spec = ModelSpec(
            "Annihilation", (10.0,), 0.0, {"R": Rate(const=1.0, table=tuple(tab))}, g
        )
        with np.errstate(all="ignore"):
            with pytest.raises(NonConvergence):
                dyson_tree_density(spec, 2.0, 2).csv()


# ---------------------------------------------------------------------------
# Mean-field PDE and memory form
# ---------------------------------------------------------------------------


class TestMeanField:
    def test_pure_diffusion_spectral_exact(self):
        g, R, v = gauss_fields(L=10.0, n=64, cv=5.0, sv=1.0, center=5.0)
        spec = annih_spec(g, R.with_values(np.zeros(g.shape)), v, 1.3)
        series = mean_field_pde(spec, 0.7, 35)
        k2 = g.ksquared()
        exact = np.real(np.fft.ifftn(np.exp(-1.3 * 0.7 * k2) * np.fft.fftn(v.values)))
        assert np.max(np.abs(final_field(series) - exact)) < 1e-10

    @pytest.mark.parametrize("shape, center", [
        ((64,), (3.7,)), ((63,), (3.7,)), ((24, 24), (2.2, 3.9)), ((25, 18), (2.2, 3.9)),
    ])
    def test_matches_full_spectrum_reference(self, shape, center):
        """The half-spectrum transforms change the fields only at roundoff."""
        spec = gauss_spec_nd((10.0,) if len(shape) == 1 else (6.0, 6.0), shape, center)
        got = full_values(mean_field_pde(spec, 0.4, 100))
        assert np.max(np.abs(got - full_spectrum_mean_field(spec, 0.4, 100))) <= 1e-12

    def test_logistic_uniform(self):
        L, n, v0, Rbar, t = 10.0, 32, 1.7, 0.9, 1.0
        g = FieldGrid((L,), np.full(n, v0))
        tab = np.zeros(n)
        tab[0] = Rbar / g.cell_volume
        spec = ModelSpec(
            "Annihilation", (L,), 0.0, {"R": Rate(const=1.0, table=tuple(tab))}, g
        )
        series = mean_field_pde(spec, t, 200)
        exact = v0 / (1.0 + Rbar * v0 * t)
        assert np.max(np.abs(final_field(series) - exact)) < 1e-9

    def test_monotone_mass_decay(self):
        g, R, v = gauss_fields(L=10.0, n=64, cR=0.8, sR=0.6, cv=8.0, sv=1.0, center=5.0)
        spec = annih_spec(g, R, v, 0.7)
        series = mean_field_pde(spec, 1.0, 100)
        mass = full_values(series).sum(axis=1) * g.cell_volume
        assert all(b <= a + 1e-12 for a, b in zip(mass, mass[1:]))

    def test_memory_form_early_time_spot_check(self):
        """Literal memory-kernel collision term agrees with the local
        reduction at early times on smooth data (documented 1e-3 check)."""
        g, R, v = gauss_fields(cR=1.0, sR=0.7, cv=0.8, sv=0.9, center=math.pi)
        spec = annih_spec(g, R, v, 0.5)
        t = 5e-4
        mf = mean_field_pde(spec, t, 50)
        mem = memory_form_density(spec, t, 50)
        x = final_field(mf)
        rel = np.max(np.abs(x - mem)) / np.max(x)
        assert rel < 1e-3

    def test_early_time_vs_monte_carlo(self):
        """A+A->phi particle MC within 3 SE of mean field while Rvt <= 0.2."""
        L, n, D, v0, t = 10.0, 32, 1.0, 2.0, 0.2
        sigma, cutoff = 0.5, 1.5
        xs = np.linspace(0.0, cutoff, 31)
        c = 0.5 / (sigma * math.sqrt(2 * math.pi) * math.erf(cutoff / (sigma * math.sqrt(2))))
        kern = RadialKernel(cutoff, tuple(c * np.exp(-xs ** 2 / (2 * sigma ** 2))))

        g = FieldGrid((L,), np.full(n, v0))
        x = g.axes()[0]
        dist = np.minimum(x, L - x)
        tab = np.asarray(kern(dist), float)
        spec = ModelSpec(
            "Annihilation", (L,), D, {"R": Rate(const=1.0, table=tuple(tab))}, g
        )
        mf = final_field(mean_field_pde(spec, t, 200))

        sim = SimConfig(dt=0.02, replicas=3000, seed=5, kernel=kern)
        report = run(spec, sim, t)
        dV = report.fields["density"].cell_volume
        pred_se = np.sqrt(np.maximum(mf, 0) * dV / report.replicas) / dV
        se = np.maximum(report.fields["density_se"].values, pred_se)
        z = (report.fields["density"].values - mf) / se
        assert np.mean(np.abs(z) > 3.0) <= 2.0 / n
        # and the decay is material, so the comparison has power
        assert np.mean(mf) < 0.9 * v0


# ---------------------------------------------------------------------------
# Small-grid dense transforms
# ---------------------------------------------------------------------------

DENSE_SHAPES = [(1,), (2,), (7,), (64,), (DENSE_CELLS,), (DENSE_CELLS + 1,),
                (1, 1), (8, 8), (7, 9), (2, 3, 4)]


class TestDenseTransforms:
    """dense_map on the maps the tree-level solvers repeat.  Criterion 11's
    2-D grids lie above DENSE_CELLS, so these gate the dense path in 2-D."""

    @pytest.mark.parametrize("shape", DENSE_SHAPES, ids=str)
    def test_position_operator_matches_ffts(self, shape):
        rng = np.random.default_rng(1)
        x = rng.normal(size=shape)
        mult = rng.uniform(-1.0, 1.0, half_fft(x).shape)

        def op(x):
            return half_ifft(mult * half_fft(x, len(shape)), shape)

        dense = dense_map(op, shape)
        assert (dense is op) == (math.prod(shape) > DENSE_CELLS)
        want = half_ifft(mult * half_fft(x), shape)
        got = dense(x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", DENSE_SHAPES, ids=str)
    def test_collision_matches_ffts(self, shape):
        """Dyson's collision (perturb.dyson_collision): x and R*x from a half
        spectrum (complex input), then the half spectrum of their product
        (complex output), against the same maps as FFTs."""
        rng = np.random.default_rng(2)
        d = len(shape)
        xh = half_fft(rng.normal(size=shape))
        rhat = rng.uniform(-1.0, 1.0, xh.shape)
        x, rx = half_ifft(np.stack([xh, rhat * xh]), shape)
        want = half_fft(x * rx, d) / 0.3
        got = dyson_collision(rhat, shape, 0.3)(xh)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [s for s in DENSE_SHAPES if math.prod(s) <= DENSE_CELLS],
                             ids=str)
    def test_dot_keeps_the_matmul_bits(self, shape):
        """dense_map's products are ndarray.dot, which costs about 1 us less
        per call than `@`.  Each dense map gives, bit for bit, what
        arg.view(float) @ matrix gives (the heat map, the mean field's
        convolution, and Dyson's pair and half maps), and Dyson's collision
        what to_half(x * rx) gives with the pair unpacked.  A BLAS where dot
        and matmul differ would otherwise show only as a failed digest."""
        rng = np.random.default_rng(6)
        d, cells = len(shape), math.prod(shape)
        g = FieldGrid((10.0,) * d, rng.uniform(0.0, 1.0, shape))
        x = rng.normal(size=shape)
        half = half_spectrum(g.values).shape
        xh = rng.normal(size=half) + 1j * rng.normal(size=half)
        rhat = np.real(half_fft(g.values)) * g.cell_volume
        dV = g.cell_volume

        def pair(y):
            both = half_ifft(np.stack([y, rhat * y], axis=-d - 1), shape)
            return both.reshape(*both.shape[:-d - 1], 2 * cells)

        def to_half(y):
            return half_fft(y.reshape(*y.shape[:-1], *shape), d) / dV

        def matmul_map(op, arg, dtype):
            size = arg.size * np.dtype(dtype).itemsize // 8
            images = op(np.eye(size).view(dtype).reshape(size, *arg.shape))
            matrix = np.ascontiguousarray(images).reshape(size, -1).view(float)
            return (arg.reshape(-1).view(float) @ matrix).view(images.dtype).reshape(images.shape[1:])

        mults = {"heat": np.expm1(-0.7 * 0.01 * half_spectrum(g.ksquared())),
                 "convolution": half_fft(g.values) * dV}
        maps = {name: (lambda y, mult=mult: half_ifft(mult * half_fft(y, d), shape), x, float)
                for name, mult in mults.items()}
        maps["pair"] = (pair, xh, complex)
        maps["half"] = (to_half, x.reshape(-1), float)
        for name, (op, arg, dtype) in maps.items():
            got, want = dense_map(op, arg.shape, dtype)(arg), matmul_map(op, arg, dtype)
            assert got.shape == want.shape, name
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
        x_pair, rx_pair = matmul_map(pair, xh, complex).reshape(2, cells)
        want = matmul_map(to_half, x_pair * rx_pair, float)
        got = dyson_collision(rhat, shape, dV)(xh)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [1, 2, 7, 64, DENSE_CELLS])
    def test_bare_product_keeps_the_general_path_bits(self, n):
        """A map of flat vectors takes only the views it needs around its
        product: none for flat real vectors (x @ matrix).  The same map on a
        1 x n grid takes the general path, which reshapes and views its
        vectors around the product, and gives the same bits: for the heat
        map (heat_change itself), the mean field's convolution, and Dyson's
        to_pair (a complex half spectrum to a real pair) and to_half (a real
        field to a complex half spectrum)."""
        rng = np.random.default_rng(4)
        g = FieldGrid((10.0,), rng.uniform(0.0, 1.0, n))
        h = n // 2 + 1
        x = rng.normal(size=n)
        xh = rng.normal(size=h) + 1j * rng.normal(size=h)
        rhat = np.real(half_fft(g.values)) * g.cell_volume
        mults = {"heat": np.expm1(-0.7 * 0.01 * half_spectrum(g.ksquared())),
                 "convolution": half_fft(g.values) * g.cell_volume}
        maps = {name: (lambda y, mult=mult: half_ifft(mult * half_fft(y, 1), (n,)), x, float)
                for name, mult in mults.items()}
        maps["to_pair"] = (lambda y: half_ifft(np.stack([y, rhat * y], axis=-2), (n,)),
                           xh, complex)
        maps["to_half"] = (lambda y: half_fft(y, 1) / g.cell_volume, x, float)
        bare = {}
        for name, (op, arg, dtype) in maps.items():
            def op_1xn(y, op=op):
                image = op(y.reshape(*y.shape[:-2], y.shape[-1]))
                return image.reshape(*y.shape[:-2], 1, *image.shape[y.ndim - 2:])

            got = dense_map(op, arg.shape, dtype)(arg)
            general = dense_map(op_1xn, (1, *arg.shape), dtype)(arg.reshape(1, -1))
            assert got.shape == general.shape[1:] == op(arg).shape, name
            bare[name] = got.view(np.int64)
            assert np.array_equal(bare[name], general.reshape(got.shape).view(np.int64)), name
        assert np.array_equal(heat_change(g, 0.7, 0.01)(x).view(np.int64), bare["heat"])

    @pytest.mark.parametrize("shape, center", [((8, 8), (3.0, 3.0)), ((7, 9), (2.2, 3.9))])
    def test_dyson_matches_mean_field_2d(self, shape, center):
        """Criterion 11's 2-D agreement on grids small enough for the dense path."""
        spec = gauss_spec_nd((6.0, 6.0), shape, center)
        dy = dyson_tree_density(spec, 0.4, 400)
        mf = mean_field_pde(spec, 0.4, 400)
        sup = np.max(np.abs(to_position(spec.grid(), final_field(dy)) - final_field(mf)))
        assert sup < 1e-6


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------


class TestPlumbing:
    def test_momentum_grid_validation(self):
        """Both spectra have the grid's shape, and D >= 0."""
        g, R, v = gauss_fields()
        Rhat, vhat = R.to_momentum(), v.to_momentum()
        MomentumGrid(grid=g, Rhat=Rhat, vhat=vhat, D=1.0)
        with pytest.raises(PerturbError, match="shape"):
            MomentumGrid(grid=g, Rhat=Rhat[:-1], vhat=vhat, D=1.0)
        with pytest.raises(PerturbError, match="shape"):
            MomentumGrid(grid=g, Rhat=Rhat, vhat=half_spectrum(vhat), D=1.0)
        with pytest.raises(PerturbError, match="D must be"):
            MomentumGrid(grid=g, Rhat=Rhat, vhat=vhat, D=-1.0)

    def test_odd_kernel_refused(self):
        g, R, v = gauss_fields()
        odd = g.with_values(wrapped_gaussian(g, 1.0, 0.5, [1.0]))  # not even
        with pytest.raises(PerturbError, match="must be even"):
            kernel_field(annih_spec(g, odd, v, 1.0))

    def test_non_hermitian_intensity_rejected(self):
        """The transform of a complex intensity is not Hermitian; the
        half-spectrum solver would silently drop its anti-Hermitian part."""
        g, R, v = gauss_fields()
        vhat = np.fft.fftn(v.values + 1j * R.values) * g.cell_volume
        with pytest.raises(PerturbError, match="Hermitian"):
            MomentumGrid(grid=g, Rhat=R.to_momentum(), vhat=vhat, D=1.0)

    def test_kernel_field_from_spec(self):
        g, R, v = gauss_fields()
        spec = annih_spec(g, R, v, 1.0)
        assert np.allclose(kernel_field(spec).values, R.values)

    def test_series_csv(self):
        g, R, v = gauss_fields(L=10.0, n=4)
        spec = annih_spec(g, R, v, 1.0)
        series = mean_field_pde(spec, 0.1, 2)
        text = series.csv()
        lines = text.strip().split("\n")
        assert lines[0] == "t,x0,value"
        assert len(lines) == 1 + 3 * 4
        t0, x0, val = lines[1].split(",")
        assert float(t0) == 0.0
        assert float(val) == pytest.approx(v.values[0])
