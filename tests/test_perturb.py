"""Tests for the perturbative solver against quadrature and MC oracles."""

import math

import numpy as np
import pytest
import sympy
from scipy import integrate

from rdito import algebra as alg
from rdito.grid import FieldGrid, MOMENTUM, POSITION
from rdito.models import ModelSpec, Rate, wrapped_gaussian
from rdito.perturb import (
    ExpProduct,
    GridTooCoarse,
    MomentumGrid,
    NonConvergence,
    PerturbError,
    THETA0,
    TimeSeries,
    dyson_tree_density,
    kernel_field,
    mean_field_pde,
    momentum_grid,
    propagator,
    simplex_time_factor,
    third_order_rates,
    third_order_term,
)
from rdito.simulate import RadialKernel, SimConfig, run


def gauss_fields(L=2 * math.pi, n=16, cR=0.7, sR=1.0, cv=2.0, sv=0.8, center=0.0):
    """Position-space Gaussian kernel/intensity whose transforms are Gaussian."""
    g = FieldGrid((L,), np.zeros(n), POSITION)
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
    k2, rhat, dV = grid.Rhat.ksquared(), np.real(grid.Rhat.values), grid.Rhat.cell_volume

    def collision(xh):
        x, rx = np.fft.ifftn(xh) / dV, np.fft.ifftn(rhat * xh) / dV
        return np.fft.fftn(x * rx) * dV

    xs = [np.asarray(grid.vhat.values, complex)]
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
        assert alg.evaluate_scalar(prod, env) == pytest.approx(
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
        assert simplex_time_factor(ExpProduct([2.0]), 0.7) == pytest.approx(
            math.exp(-1.4), rel=1e-14
        )

    def test_two_rates_symbolic(self):
        a, b, t = 1.3, 0.4, 0.9
        s, av, bv, tv = sympy.symbols("s a b t", positive=True)
        exact = sympy.integrate(
            sympy.exp(-av * (tv - s)) * sympy.exp(-bv * s), (s, 0, tv)
        )
        expect = float(exact.subs({av: a, bv: b, tv: t}))
        assert simplex_time_factor(ExpProduct([a, b]), t) == pytest.approx(
            expect, rel=1e-12
        )
        assert expect == pytest.approx(
            (math.exp(-b * t) - math.exp(-a * t)) / (a - b), rel=1e-12
        )

    def test_confluent_triple(self):
        a, t = 1.0, 0.9
        assert simplex_time_factor(ExpProduct([a, a, a]), t) == pytest.approx(
            t ** 2 / 2 * math.exp(-a * t), rel=1e-12
        )

    def test_near_degenerate_continuity(self):
        a, t = 0.8, 1.1
        exact = simplex_time_factor(ExpProduct([a, a]), t)
        close = simplex_time_factor(ExpProduct([a, a + 1e-11]), t)
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
        got = simplex_time_factor(ExpProduct(rates), t)
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
                * simplex_time_factor(ExpProduct(rates[1:]), s),
                0.0,
                t,
                epsabs=1e-13,
                epsrel=1e-12,
            )
            assert simplex_time_factor(ExpProduct(rates), t) == pytest.approx(
                val, rel=1e-9
            )

    def test_zero_time(self):
        assert simplex_time_factor(ExpProduct([1.0, 2.0, 3.0]), 0.0) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_validation(self):
        with pytest.raises(PerturbError):
            ExpProduct([])
        with pytest.raises(PerturbError):
            ExpProduct([-1.0])


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

    def test_matches_brute_force_cubature(self):
        """16-point d=1 grid vs dense continuum quadrature of the same diagram.

        The oracle discretizes the three momentum integrals on an independent
        (offset, finer) midpoint rule and does the time simplex by a nested
        cumulative-trapezoid chain, nowhere touching partial fractions or the
        grid's FFT indexing.
        """
        cR, sR, cv, sv, D, t = 0.7, 1.0, 2.0, 0.8, 0.6, 0.5
        g, R, v = gauss_fields(cR=cR, sR=sR, cv=cv, sv=sv)
        mg = momentum_grid(annih_spec(g, R, v, D))
        kidx = 1
        got = third_order_term(mg, kidx, t)

        kv = mg.Rhat.kaxes()[0][kidx]
        npts = 96
        edges = np.linspace(-8.0, 8.0, npts + 1)
        nodes = 0.5 * (edges[:-1] + edges[1:])
        h = edges[1] - edges[0]
        ll, mm, nn = (x.ravel() for x in np.meshgrid(nodes, nodes, nodes, indexing="ij"))
        rh = lambda k: cR * np.exp(-sR ** 2 * k ** 2 / 2)
        vh = lambda k: cv * np.exp(-sv ** 2 * k ** 2 / 2)
        w = rh(ll) * rh(mm) * rh(nn) * vh(kv - mm - nn) * vh(mm) * vh(nn)
        a3 = D * kv ** 2 * np.ones_like(ll)
        a2 = D * ((kv - mm - nn + ll) ** 2 + (mm + nn - ll) ** 2)
        a1 = D * ((kv - mm - nn + ll) ** 2 + (mm - ll) ** 2 + nn ** 2)
        a0 = D * ((kv - mm - nn) ** 2 + mm ** 2 + nn ** 2)

        q = 400
        tau = np.linspace(0.0, t, q + 1)
        dtau = tau[1] - tau[0]

        def cumtr(y):
            out = np.zeros_like(y)
            out[:, 1:] = np.cumsum(0.5 * (y[:, 1:] + y[:, :-1]), axis=1) * dtau
            return out

        T = np.empty(ll.size)
        for lo in range(0, ll.size, 8192):
            sl = slice(lo, min(lo + 8192, ll.size))
            F = np.exp(-a0[sl, None] * tau[None, :])
            for a in (a1[sl], a2[sl]):
                F = np.exp(-a[:, None] * tau[None, :]) * cumtr(
                    np.exp(a[:, None] * tau[None, :]) * F
                )
            T[sl] = (
                np.exp(-a3[sl] * t)
                * cumtr(np.exp(a3[sl, None] * tau[None, :]) * F)[:, -1]
            )
        oracle = -1.0 / (2.0 * 2.0 * math.pi) * h ** 3 * float(np.sum(w * T))
        assert got == pytest.approx(oracle, rel=1e-4)

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
        mg = momentum_grid(spec)
        series = dyson_tree_density(mg, 0.4, 20)
        exact = np.exp(-0.7 * 0.4 * mg.Rhat.ksquared()) * mg.vhat.values
        assert np.max(np.abs(series.final.values - exact)) < 1e-12

    def test_logistic_diffusion_limited(self):
        L, n, v0, Rbar, t = 10.0, 32, 1.7, 0.9, 1.0
        g = FieldGrid((L,), np.full(n, v0), POSITION)
        tab = np.zeros(n)
        tab[0] = Rbar / g.cell_volume
        spec = ModelSpec(
            "Annihilation", (L,), 1.0, {"R": Rate(const=1.0, table=tuple(tab))}, g
        )
        series = dyson_tree_density(momentum_grid(spec), t, 1000)
        x = series.final.to_position().values
        exact = v0 / (1.0 + Rbar * v0 * t)
        assert np.max(np.abs(x - exact)) < 1e-6

    def test_matches_mean_field_pde(self):
        g, R, v = gauss_fields(L=10.0, n=64, cR=0.8, sR=0.6, cv=8.0, sv=1.0, center=5.0)
        spec = annih_spec(g, R, v, 0.7)
        t, steps = 0.4, 800
        dy = dyson_tree_density(momentum_grid(spec), t, steps)
        mf = mean_field_pde(spec, t, steps)
        diff = np.max(np.abs(dy.final.to_position().values - mf.final.values))
        assert diff < 1e-6

    def test_momentum_symmetry(self):
        g, R, v = gauss_fields(center=0.0)
        spec = annih_spec(g, R, v, 0.5)
        series = dyson_tree_density(momentum_grid(spec), 0.3, 100)
        x = series.final.values
        n = len(x)
        flipped = x[(-np.arange(n)) % n]
        assert np.max(np.abs(x - flipped)) < 1e-12

    def test_first_order_in_kernel(self):
        """First order in R equals one vertex dressed with free propagators."""
        L, n, D, t = 2 * math.pi, 8, 0.5, 0.1
        g = FieldGrid((L,), np.zeros(n), POSITION)
        Rpos = wrapped_gaussian(g, 1.0, 0.7, [0.0])
        vhat = g.with_values(wrapped_gaussian(g, 0.8, 0.9, [L / 2])).to_momentum()
        eps = 1e-3

        def tilted(sign):
            rhat = g.with_values(sign * eps * Rpos).to_momentum()
            mg = MomentumGrid(Rhat=rhat, vhat=vhat, D=D)
            return dyson_tree_density(mg, t, 1000).final.values

        first = (tilted(+1.0) - tilted(-1.0)) / (2.0 * eps)

        rh = g.with_values(Rpos).to_momentum().values.real
        vv = vhat.values
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

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_direct_history_sum(self, d):
        """The carried-forward history equals the direct trapezoid sum."""
        L, n = 10.0, 32 if d == 1 else 12
        g = FieldGrid((L,) * d, np.zeros((n,) * d), POSITION)
        R = g.with_values(wrapped_gaussian(g, 0.8, 0.6, [0.0] * d))
        v = g.with_values(wrapped_gaussian(g, 8.0, 1.0, [5.0] * d))
        mg = momentum_grid(annih_spec(g, R, v, 0.7))
        got = np.array([f.values for f in dyson_tree_density(mg, 0.4, 200).fields])
        assert np.max(np.abs(got - direct_sum_dyson(mg, 0.4, 200))) <= 1e-12

    def test_nonconvergence(self):
        g = FieldGrid((10.0,), np.full(16, 50.0), POSITION)
        tab = np.full(16, 1.0)
        spec = ModelSpec(
            "Annihilation", (10.0,), 0.0, {"R": Rate(const=1.0, table=tuple(tab))}, g
        )
        with np.errstate(all="ignore"):
            with pytest.raises(NonConvergence):
                dyson_tree_density(momentum_grid(spec), 2.0, 2)


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
        assert np.max(np.abs(series.final.values - exact)) < 1e-10

    def test_logistic_uniform(self):
        L, n, v0, Rbar, t = 10.0, 32, 1.7, 0.9, 1.0
        g = FieldGrid((L,), np.full(n, v0), POSITION)
        tab = np.zeros(n)
        tab[0] = Rbar / g.cell_volume
        spec = ModelSpec(
            "Annihilation", (L,), 0.0, {"R": Rate(const=1.0, table=tuple(tab))}, g
        )
        series = mean_field_pde(spec, t, 200)
        exact = v0 / (1.0 + Rbar * v0 * t)
        assert np.max(np.abs(series.final.values - exact)) < 1e-9

    def test_monotone_mass_decay(self):
        g, R, v = gauss_fields(L=10.0, n=64, cR=0.8, sR=0.6, cv=8.0, sv=1.0, center=5.0)
        spec = annih_spec(g, R, v, 0.7)
        series = mean_field_pde(spec, 1.0, 100)
        mass = [f.integral() for f in series.fields]
        assert all(b <= a + 1e-12 for a, b in zip(mass, mass[1:]))

    def test_memory_form_early_time_spot_check(self):
        """Literal memory-kernel collision term agrees with the local
        reduction at early times on smooth data (documented 1e-3 check)."""
        g, R, v = gauss_fields(cR=1.0, sR=0.7, cv=0.8, sv=0.9, center=math.pi)
        spec = annih_spec(g, R, v, 0.5)
        t = 5e-4
        mf = mean_field_pde(spec, t, 50)
        mem = memory_form_density(spec, t, 50)
        rel = np.max(np.abs(mf.final.values - mem)) / np.max(mf.final.values)
        assert rel < 1e-3

    def test_early_time_vs_monte_carlo(self):
        """A+A->phi particle MC within 3 SE of mean field while Rvt <= 0.2."""
        L, n, D, v0, t = 10.0, 32, 1.0, 2.0, 0.2
        sigma, cutoff = 0.5, 1.5
        xs = np.linspace(0.0, cutoff, 31)
        c = 0.5 / (sigma * math.sqrt(2 * math.pi) * math.erf(cutoff / (sigma * math.sqrt(2))))
        kern = RadialKernel(cutoff, tuple(c * np.exp(-xs ** 2 / (2 * sigma ** 2))))

        g = FieldGrid((L,), np.full(n, v0), POSITION)
        x = g.axes()[0]
        dist = np.minimum(x, L - x)
        tab = np.asarray(kern(dist), float)
        spec = ModelSpec(
            "Annihilation", (L,), D, {"R": Rate(const=1.0, table=tuple(tab))}, g
        )
        mf = mean_field_pde(spec, t, 200).final.values

        sim = SimConfig(dt=0.02, replicas=3000, seed=5, kernel=kern)
        report = run(spec, sim, t)
        dV = report.mean_field.cell_volume
        pred_se = np.sqrt(np.maximum(mf, 0) * dV / report.replicas) / dV
        se = np.maximum(report.se_field.values, pred_se)
        z = (report.mean_field.values - mf) / se
        assert np.mean(np.abs(z) > 3.0) <= 2.0 / n
        # and the decay is material, so the comparison has power
        assert np.mean(mf) < 0.9 * v0


# ---------------------------------------------------------------------------
# Plumbing
# ---------------------------------------------------------------------------


class TestPlumbing:
    def test_momentum_grid_validation(self):
        g, R, v = gauss_fields()
        odd = g.with_values(wrapped_gaussian(g, 1.0, 0.5, [1.0]))  # not even
        with pytest.raises(PerturbError):
            MomentumGrid(Rhat=odd.to_momentum(), vhat=v.to_momentum(), D=1.0)
        with pytest.raises(PerturbError):
            MomentumGrid(Rhat=R.to_momentum(), vhat=v, D=1.0)

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
