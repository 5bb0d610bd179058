"""End-to-end acceptance gate: twelve criteria, one printed line each.

Each test prints a single ``[NN/12] <name>: PASS|FAIL`` line (bypassing
capture so the lines show up under a plain ``pytest -v``) and then asserts.
The checks reuse only public APIs plus independent oracles (scipy
quadrature/expm, Gauss-Hermite cubature, brute-force combinatorics, closed
forms); they do not reimplement any library internals.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, linalg, stats

from rdito import algebra as alg
from rdito import cli, models, perturb
from rdito.grid import FieldGrid
from rdito.models import (
    ModelSpec,
    Rate,
    birth_death_timedep_density,
    brownian_tree_density,
    brownian_tree_log_gf,
    convert_ab_densities,
    death_diffusion_density,
    death_diffusion_log_gf,
    discrete_death_log_gf,
    discrete_death_mean,
    wrapped_gaussian,
)
from rdito.perturb import (
    dyson_tree_density,
    mean_field_pde,
    momentum_grid,
    simplex_time_factor,
    third_order_rates,
    third_order_term,
)
from rdito.simulate import RadialKernel, SimConfig, run
from oracles import chunk_tallies, final_field, propagator, stirling2, to_position
from third_order_oracle import third_order_continuum

L, N = 10.0, 64


def report(capsys, num, name, ok, extra=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        line = f"[{num:2d}/12] {name}: {status}"
        if extra:
            line += f"  ({extra})"
        print(line, flush=True)
    assert ok, f"acceptance criterion {num} ({name}) failed"


def fam(name, param=None):
    return alg.make_family(name, param)


def gauss_spec(kind="DeathDiffusion", mu=1.0, D=1.0, mass=20.0):
    g = FieldGrid((L,), np.zeros(N))
    v = g.with_values(wrapped_gaussian(g, mass, 1.0, L / 2))
    return ModelSpec(kind, (L,), D, {"mu": Rate(const=mu)}, v)


def cell_averaged(kind, t, refine=8, mu=1.0, D=1.0, mass=20.0):
    """Analytic density block-averaged over histogram cells."""
    fine = FieldGrid((L,), np.zeros(N * refine))
    vf = fine.with_values(wrapped_gaussian(fine, mass, 1.0, L / 2))
    spec = ModelSpec(kind, (L,), D, {"mu": Rate(const=mu)}, vf)
    if kind == "DeathDiffusion":
        dens = death_diffusion_density(spec, t).values
    else:
        dens = brownian_tree_density(spec, t).values
    dens = 0.5 * (dens + np.roll(dens, -1))
    return dens.reshape(N, refine).mean(axis=1)


def density_zscores(rep, ref):
    """Per-cell z with an SE floor from the analytic Poisson prediction."""
    dV = rep.fields["density"].cell_volume
    pred = np.sqrt(np.maximum(ref, 0) * dV / rep.replicas) / dV
    se = np.maximum(rep.fields["density_se"].values, pred)
    return (rep.fields["density"].values - ref) / np.maximum(se, 1e-300)


# ---------------------------------------------------------------------------
# 1. Ito multiplication tables, derived by the engine and via the CLI
# ---------------------------------------------------------------------------


def test_criterion_01_ito_tables(capsys, tmp_path):
    t0 = time.time()
    ok = True
    base = str(tmp_path / "table1")
    rc = cli.main(["derive-table", "Lambda", "A", "Adag", "dt", "--out", base])
    ok &= rc == 0
    table1 = alg.derive_table([fam("Lambda"), fam("A"), fam("Adag"), fam("dt")])
    with open(base + ".txt") as f:
        ok &= f.read() == table1.render_text()
    with open(base + ".json") as f:
        entries = json.load(f)["entries"]
    ok &= len(entries) == 16 and len(table1.entries) == 16
    ok &= table1.all_recognized()

    def r(row, col):
        return table1.entry(row, col).render()

    ok &= r("Lambda", "Lambda") == "dLambda[FG]"
    ok &= r("Lambda", "Adag") == "dAdag[FG]"
    ok &= r("A", "Lambda") == "dA[FG]"
    ok &= r("A", "Adag") == "<F,G> dt"
    for row in ("Adag", "dt"):
        for col in ("Lambda", "A", "Adag", "dt"):
            ok &= r(row, col) == "0"
    for col in ("A", "dt"):
        ok &= r("Lambda", col) == "0" and r("A", col if col != "A" else "A") == "0"

    table2 = alg.derive_table([fam("M"), fam("Lambda")])
    ok &= len(table2.entries) == 4 and table2.all_recognized()
    ok &= table2.entry("M", "Lambda").render() == "dM[FG]"
    ok &= table2.entry("M", "M").kind == "zero"
    ok &= table2.entry("Lambda", "M").kind == "zero"

    table3 = alg.derive_table([fam("X"), fam("Y")])
    ok &= len(table3.entries) == 4 and table3.all_recognized()
    yx = table3.entry("Y", "X")
    ok &= (yx.family, yx.scale) == ("X", Fraction(-1))
    yy = table3.entry("Y", "Y")
    ok &= (yy.family, yy.scale) == ("Y", Fraction(-1))
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    report(capsys, 1, "Ito tables (engine + CLI)", ok, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Higher-order noise products and non-associativity
# ---------------------------------------------------------------------------


def test_criterion_02_higher_order_products(capsys):
    ok = True
    for m in range(1, 5):
        for n in range(1, 5):
            p = alg.ito_product(fam("B", m).instance(["G"]), fam("B", n).instance(["H"]))
            ok &= len(p.terms) == 1
            t = p.terms[0]
            ok &= t.coeff.numeric == n
            ok &= sum(op.dagger for op in t.ops) == m + n - 1
            ok &= sum(not op.dagger for op in t.ops) == 1
    for l, m, n in [(1, 2, 3), (2, 2, 2), (3, 1, 4), (2, 3, 1), (4, 4, 4)]:
        inner = alg.ito_product(fam("B", m).instance(["G"]), fam("B", n).instance(["H"]))
        p = alg.ito_product(fam("B", l).instance(["F"]), inner)
        ok &= len(p.terms) == 1 and p.terms[0].coeff.numeric == n * (m + n - 1)
    # the witness: grouping matters, 4 vs 6
    lam = fam("Lambda").instance(["F"])
    b2g = fam("B", 2).instance(["G"])
    b2h = fam("B", 2).instance(["H"])
    left = alg.ito_product(alg.ito_product(lam, b2g), b2h)
    right = alg.ito_product(lam, alg.ito_product(b2g, b2h))
    ok &= left.terms[0].coeff.numeric == 4
    ok &= right.terms[0].coeff.numeric == 6
    ok &= left != right
    report(capsys, 2, "higher-order dB products + non-associativity", ok)


# ---------------------------------------------------------------------------
# 3. Two-body noise product: contraction census
# ---------------------------------------------------------------------------


def test_criterion_03_two_body_product(capsys):
    alg.declare_kernel("R", symmetric=True)
    alg.declare_kernel("S", symmetric=True)
    xi_r = alg.term(
        [alg.adag("p"), alg.adag("q"), alg.a("p"), alg.a("q")],
        numeric=Fraction(1, 2),
        factors=[("R", ["p", "q"])],
        bound=[("p", alg.FULL, "u"), ("q", alg.FULL, "u")],
    )
    xi_s = alg.term(
        [alg.adag("p2"), alg.adag("q2"), alg.a("p2"), alg.a("q2")],
        numeric=Fraction(1, 2),
        factors=[("S", ["p2", "q2"])],
        bound=[("p2", alg.FULL, "u"), ("q2", alg.FULL, "u")],
    )
    prod = alg.term(
        xi_r.ops + xi_s.ops,
        numeric=Fraction(1, 4),
        factors=[("R", ["p", "q"]), ("S", ["p2", "q2"])],
        bound=xi_r.bound + xi_s.bound,
    )
    ok = alg.count_contractions(prod) == 7
    no = alg.normal_order(alg.expr(prod))
    ok &= len(no.terms) == 3
    by_nops = {len(t.ops): t for t in no.terms}
    ok &= set(by_nops) == {8, 6, 4}
    ok &= by_nops[8].coeff.numeric == Fraction(1, 4)
    ok &= by_nops[6].coeff.numeric == Fraction(1, 1)
    ok &= by_nops[4].coeff.numeric == Fraction(1, 2)
    ok &= sorted(n for n, _ in by_nops[4].coeff.factors) == ["R", "S"]
    # and the same census through the packaged Ito product
    p = alg.ito_product(fam("Xi").instance(["R"]), fam("Xi").instance(["S"]))
    ok &= len(p.terms) == 1 and p.terms[0].coeff.numeric == Fraction(1, 2)
    report(capsys, 3, "two-body noise product (7 contractions, 3 terms)", ok)


# ---------------------------------------------------------------------------
# 4. Death-diffusion Monte Carlo vs closed forms at 1e5 replicas
# ---------------------------------------------------------------------------


def test_criterion_04_death_diffusion_mc(capsys):
    t0 = time.time()
    spec = gauss_spec()
    t_end = 0.5
    replicas = 100_000
    sim = SimConfig(dt=0.005, replicas=replicas, seed=3)
    g = spec.grid()
    dV = g.cell_volume

    ref = cell_averaged("DeathDiffusion", t_end)
    lam = ref * dV  # Poisson mean count per cell

    # aggregate per-replica cell counts chunk by chunk, mirroring run()
    s_gf = 0.5
    nchunks = (replicas + sim.chunk - 1) // sim.chunk
    sizes = [min(sim.chunk, replicas - i * sim.chunk) for i in range(nchunks)]
    sum_c = np.zeros(N)
    sum_c2 = np.zeros(N)
    sum_g = np.zeros(N)
    sum_g2 = np.zeros(N)
    for ci in range(nchunks):
        c = chunk_tallies(spec, sim, t_end, None, ci, sizes[ci])["counts0"].astype(float)
        sum_c += c.sum(axis=0)
        sum_c2 += (c ** 2).sum(axis=0)
        gfv = (1.0 - s_gf) ** c  # per-replica GF sample for u_j = 1 - s on cell j
        sum_g += gfv.sum(axis=0)
        sum_g2 += (gfv ** 2).sum(axis=0)

    mean_c = sum_c / replicas
    se_c = np.sqrt(np.maximum(sum_c2 / replicas - mean_c ** 2, 0) / (replicas - 1))
    dens, dens_se = mean_c / dV, se_c / dV
    pred_se = np.sqrt(np.maximum(ref, 0) * dV / replicas) / dV
    z_dens = (dens - ref) / np.maximum(dens_se, pred_se)

    # per-cell log GF vs the Poisson closed form -s * lambda_j
    mean_g = sum_g / replicas
    se_g = np.sqrt(np.maximum(sum_g2 / replicas - mean_g ** 2, 0) / (replicas - 1))
    log_mc = np.log(mean_g)
    se_log = np.maximum(se_g / mean_g, s_gf * np.sqrt(np.maximum(lam, 0) / replicas))
    z_gf = (log_mc - (-s_gf * lam)) / se_log

    out = int(np.sum(np.abs(z_dens) > 3) + np.sum(np.abs(z_gf) > 3))
    elapsed = time.time() - t0
    ok = out <= max(1, int(0.01 * 2 * N)) and elapsed < 300.0
    report(capsys, 4, "death-diffusion MC at 1e5 replicas (density + GF)", ok,
           f"{out}/{2*N} cells beyond 3 SE, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Branching (Brownian tree): static exact + diffusive MC
# ---------------------------------------------------------------------------


def test_criterion_05_brownian_tree(capsys):
    spec0 = gauss_spec(kind="BrownianTree", mu=0.8, D=0.0, mass=5.0)
    t = 0.7
    got = brownian_tree_density(spec0, t).values
    ref = spec0.v.values * math.exp(0.8 * t)
    ok = np.max(np.abs(got - ref)) < 1e-12 * np.max(ref)

    spec = gauss_spec(kind="BrownianTree", mu=0.5, D=1.0, mass=10.0)
    t_end = 0.4
    rep = run(spec, SimConfig(dt=0.005, replicas=4000, seed=13), t_end)
    refc = cell_averaged("BrownianTree", t_end, mu=0.5, mass=10.0)
    z = density_zscores(rep, refc)
    frac = float(np.mean(np.abs(z) > 3))
    ok &= frac <= 0.02
    m, s = rep.scalars["N"]
    ok &= abs(m - brownian_tree_density(spec, t_end).integral()) < 3 * s
    report(capsys, 5, "branching process (exact static + diffusive MC)", ok,
           f"{frac:.1%} cells beyond 3 SE")


# ---------------------------------------------------------------------------
# 6. Stirling moment identity
# ---------------------------------------------------------------------------


def test_criterion_06_stirling(capsys):
    import itertools

    ok = True
    # ordered-product identity against brute-force enumeration, n <= 10
    for n in range(0, 11):
        for k in range(0, n + 1):
            tot = 0
            for combo in itertools.combinations_with_replacement(range(1, k + 2), n - k):
                tot += math.prod(combo)
            ok &= tot == stirling2(n + 1, k + 1)
    # EGF partial sums
    for x, k in [(0.3, 3), (0.7, 2), (0.5, 5)]:
        s = sum(stirling2(n, k) * x ** n / math.factorial(n) for n in range(k, 25))
        ok &= abs(s - (math.exp(x) - 1) ** k / math.factorial(k)) < 1e-10
    # explicit alternating-sum formula
    for n in range(0, 12):
        for k in range(0, n + 1):
            ref = sum((-1) ** j * math.comb(k, j) * (k - j) ** n
                      for j in range(k + 1)) // math.factorial(k)
            ok &= stirling2(n, k) == ref
    report(capsys, 6, "Stirling moment identity", ok)


# ---------------------------------------------------------------------------
# 7. A -> B conversion: exact mass conservation + MC agreement
# ---------------------------------------------------------------------------


def test_criterion_07_convert_ab(capsys):
    g = FieldGrid((L,), np.zeros(N))
    va = g.with_values(np.full(N, 2.0))
    vb = g.with_values(np.full(N, 0.5))
    x = g.axes()[0]
    prof = 1 + np.sin(2 * np.pi * x / L) ** 2
    spec = ModelSpec("ConvertAB", (L,), 0.0,
                     {"mu": Rate(const=0.5, table=tuple(prof))}, va, vb=vb)
    t = 0.8
    xa, xb = convert_ab_densities(spec, t)
    tot0 = va.values + vb.values
    ok = np.max(np.abs(xa.values + xb.values - tot0)) < 1e-12
    ok &= np.max(np.abs(xa.values - 2.0 * np.exp(-0.5 * prof * t))) < 1e-12

    rep = run(spec, SimConfig(dt=0.01, replicas=5000, seed=14), t)
    za = density_zscores(rep, xa.values)
    dV = g.cell_volume
    predb = np.sqrt(np.maximum(xb.values, 0) * dV / rep.replicas) / dV
    seb = np.maximum(rep.fields["density_b_se"].values, predb)
    zb = (rep.fields["density_b"].values - xb.values) / seb
    frac = float(np.mean(np.abs(za) > 3) + np.mean(np.abs(zb) > 3)) / 2
    ok &= frac <= 0.02
    report(capsys, 7, "A->B conversion (mass conservation + MC)", ok,
           f"{frac:.1%} cells beyond 3 SE")


# ---------------------------------------------------------------------------
# 8. Time-dependent birth-death: closed form, quadrature, MC
# ---------------------------------------------------------------------------


def test_criterion_08_birth_death_timedep(capsys):
    g = FieldGrid((L,), np.zeros(N))
    v = g.with_values(np.full(N, 2.0))
    mu, nu, t = 0.7, 1.3, 0.9
    spec = ModelSpec("BirthDeathTimeDep", (L,), 0.0,
                     {"mu": Rate(const=mu), "nu": Rate(const=nu)}, v)
    out = birth_death_timedep_density(spec, t).values
    closed = 2.0 * math.exp(-nu * t) + (mu / nu) * (1 - math.exp(-nu * t))
    ok = np.max(np.abs(out - closed)) < 1e-8
    # independent quadrature of the Duhamel formula
    duhamel, _ = integrate.quad(lambda s: mu * math.exp(-nu * (t - s)), 0.0, t,
                                epsabs=1e-12)
    ok &= abs(closed - (2.0 * math.exp(-nu * t) + duhamel)) < 1e-10

    rep = run(spec, SimConfig(dt=0.005, replicas=5000, seed=16), t)
    z = density_zscores(rep, out)
    frac = float(np.mean(np.abs(z) > 3))
    ok &= frac <= 0.02
    m, s = rep.scalars["N"]
    ok &= abs(m - closed * L) < 3 * s
    report(capsys, 8, "time-dependent birth-death (closed form + MC)", ok,
           f"{frac:.1%} cells beyond 3 SE")


# ---------------------------------------------------------------------------
# 9. Discrete death: full distribution vs master equation
# ---------------------------------------------------------------------------


def test_criterion_09_discrete_death(capsys):
    v, mu, t, nmax = 5.0, 0.7, 0.6, 200
    gen = np.zeros((nmax + 1, nmax + 1))
    for n in range(nmax + 1):
        gen[n, n] = -mu * n
        if n > 0:
            gen[n - 1, n] = mu * n
    p0 = stats.poisson.pmf(np.arange(nmax + 1), v)
    pt = linalg.expm(gen * t) @ p0
    pred = stats.poisson.pmf(np.arange(nmax + 1), discrete_death_mean(v, mu, t))
    ok = np.max(np.abs(pt - pred)) <= 1e-8
    ok &= abs(float(np.arange(nmax + 1) @ pred) - discrete_death_mean(v, mu, t)) < 1e-8
    ok &= abs(discrete_death_mean(v, mu, t) - v * math.exp(-mu * t)) < 1e-12
    report(capsys, 9, "discrete death distribution vs master equation", ok)


# ---------------------------------------------------------------------------
# 10. Perturbative rules: symbolic propagator, time simplex, third order
# ---------------------------------------------------------------------------


def test_criterion_10_perturbative_rules(capsys):
    ok = True
    # (a) the conjugation chain reproduces delta theta e^{-(t-s)Dk^2}
    for name in ("one", "gplus", "gminus", "h"):
        alg.declare_kernel(name)
    dA = fam("A").instance(["one"])
    dAd = fam("Adag").instance(["h"])
    dLp = fam("Lambda").instance(["gplus"])
    dLm = fam("Lambda").instance(["gminus"])
    dAt = (dA + alg.ito_product(dLp, dA) + alg.ito_product(dA, dLm)
           + alg.ito_product(dLp, alg.ito_product(dA, dLm)))
    prod = alg.ito_product(dAt, dAd)
    D, k, t, s = 0.8, 1.3, 0.9, 0.35
    env = {
        "one": 1.0,
        "gplus": math.exp(t * D * k * k) - 1.0,
        "gminus": math.exp(-t * D * k * k) - 1.0,
        "h": math.exp(s * D * k * k),
    }
    ok &= abs(alg.evaluate_scalar(prod, env) - propagator(k, t, s, D)) < 1e-12
    ok &= alg.ito_product(dAd, dAt).is_zero()
    ok &= alg.ito_product(dAt, fam("Adag").instance(["h"], site="q")).is_zero()

    # (b) simplex factor vs adaptive 3-simplex cubature
    D3, t3 = 0.6, 0.8
    rates = third_order_rates(D3, 1.0, -2.0, 0.5, 1.5)

    def integrand(t1, t2, t3_):
        return math.exp(-(t3 - t3_) * rates[0] - (t3_ - t2) * rates[1]
                        - (t2 - t1) * rates[2] - t1 * rates[3])

    val, _ = integrate.tplquad(integrand, 0.0, t3, 0.0, lambda a: a,
                               0.0, lambda a, b: b, epsabs=1e-13, epsrel=1e-12)
    got = simplex_time_factor(rates, t3)
    ok &= abs(got - val) <= 1e-8 * abs(val)

    # (c) third-order diagram vs continuum Gauss-Hermite/expm oracle, on a
    # box wide enough (4 pi) that periodic images are below 1e-12
    cR, sR, cv, sv, D, tt = 0.7, 1.0, 2.0, 0.8, 0.6, 0.5
    g = FieldGrid((4 * math.pi,), np.zeros(32))
    R = g.with_values(wrapped_gaussian(g, cR, sR, [0.0]))
    v = g.with_values(wrapped_gaussian(g, cv, sv, [0.0]))
    spec = ModelSpec("Annihilation", g.box, D,
                     {"R": Rate(const=1.0, table=tuple(R.values))}, v)
    mg = momentum_grid(spec)
    kidx = 1
    term3 = third_order_term(mg, kidx, tt)
    oracle = third_order_continuum(mg.grid.kaxes()[0][kidx], tt, D, cR, sR, cv, sv)
    rel3 = abs(term3 - oracle) / abs(oracle)
    ok &= rel3 <= 1e-9
    report(capsys, 10, "perturbative rules (propagator, simplex, 3rd order)", ok,
           f"3rd-order rel err {rel3:.1e}")


# ---------------------------------------------------------------------------
# 11. Tree resummation (Dyson) vs mean field vs Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_11_dyson_vs_mean_field_vs_mc(capsys):
    ok = True
    # uniform intensity + delta-like kernel: logistic decay
    v0, Rbar, tlog = 1.7, 0.9, 1.0
    g = FieldGrid((L,), np.full(32, v0))
    tab = np.zeros(32)
    tab[0] = Rbar / g.cell_volume
    spec_log = ModelSpec("Annihilation", (L,), 1.0,
                         {"R": Rate(const=1.0, table=tuple(tab))}, g)
    series = dyson_tree_density(spec_log, tlog, 1000)
    xlog = to_position(g, final_field(series))
    ok &= np.max(np.abs(xlog - v0 / (1.0 + Rbar * v0 * tlog))) < 1e-6

    # smooth kernel: resummed series equals the mean-field PDE to 1e-6
    g2 = FieldGrid((L,), np.zeros(N))
    R2 = g2.with_values(wrapped_gaussian(g2, 0.8, 0.6, [0.0]))
    v2 = g2.with_values(wrapped_gaussian(g2, 8.0, 1.0, [5.0]))
    spec2 = ModelSpec("Annihilation", (L,), 0.7,
                      {"R": Rate(const=1.0, table=tuple(R2.values))}, v2)
    t2, steps = 0.4, 800
    dy = dyson_tree_density(spec2, t2, steps)
    mf2 = mean_field_pde(spec2, t2, steps)
    sup = float(np.max(np.abs(to_position(g2, final_field(dy)) - final_field(mf2))))
    ok &= sup < 1e-6

    # the same in 2-D, on an even square grid and an odd non-square one
    sups2d = []
    for shape in ((24, 24), (25, 18)):
        g3 = FieldGrid((6.0, 6.0), np.zeros(shape))
        R3 = g3.with_values(wrapped_gaussian(g3, 0.8, 0.6, [0.0, 0.0]))
        v3 = g3.with_values(wrapped_gaussian(g3, 8.0, 1.0, [3.0, 3.0]))
        spec3 = ModelSpec("Annihilation", g3.box, 0.7,
                          {"R": Rate(const=1.0, table=tuple(R3.values))}, v3)
        dy3 = dyson_tree_density(spec3, 0.4, 400)
        mf3 = mean_field_pde(spec3, 0.4, 400)
        sups2d.append(float(np.max(np.abs(to_position(g3, final_field(dy3)) - final_field(mf3)))))
    ok &= max(sups2d) < 1e-6

    # early-time particle MC within 3 SE of mean field (Rvt <= 0.2)
    n, D, v0mc, tmc = 32, 1.0, 2.0, 0.2
    sigma, cutoff = 0.5, 1.5
    xs = np.linspace(0.0, cutoff, 31)
    c = 0.5 / (sigma * math.sqrt(2 * math.pi)
               * math.erf(cutoff / (sigma * math.sqrt(2))))
    kern = RadialKernel(cutoff, tuple(c * np.exp(-xs ** 2 / (2 * sigma ** 2))))
    gm = FieldGrid((L,), np.full(n, v0mc))
    x = gm.axes()[0]
    tabm = np.asarray(kern(np.minimum(x, L - x)), float)
    specm = ModelSpec("Annihilation", (L,), D,
                      {"R": Rate(const=1.0, table=tuple(tabm))}, gm)
    mfv = final_field(mean_field_pde(specm, tmc, 200))
    rep = run(specm, SimConfig(dt=0.02, replicas=3000, seed=5, kernel=kern), tmc)
    dV = rep.fields["density"].cell_volume
    pred = np.sqrt(np.maximum(mfv, 0) * dV / rep.replicas) / dV
    se = np.maximum(rep.fields["density_se"].values, pred)
    z = (rep.fields["density"].values - mfv) / se
    frac = float(np.mean(np.abs(z) > 3))
    ok &= frac <= 2.0 / n
    ok &= float(np.mean(mfv)) < 0.9 * v0mc  # the decay is material

    # qualitative, non-gated: at later times fluctuations slow the decay
    tlate = 1.5
    mflate = float(np.mean(final_field(mean_field_pde(specm, tlate, 600))))
    replate = run(specm, SimConfig(dt=0.02, replicas=1500, seed=6, kernel=kern), tlate)
    mclate = float(np.mean(replate.fields["density"].values))
    with capsys.disabled():
        print(f"        note: t={tlate} mean density MC/mean-field = "
              f"{mclate / mflate:.3f} (fluctuation slowdown, not gated)", flush=True)
    report(capsys, 11, "tree resummation vs mean field vs MC", ok,
           f"sup |dyson - pde| = {sup:.1e}, 2-D {max(sups2d):.1e}, "
           f"{frac:.1%} cells beyond 3 SE")


# ---------------------------------------------------------------------------
# 12. Generating-functional conservation at u == 1
# ---------------------------------------------------------------------------


def test_criterion_12_gf_conservation(capsys):
    ok = True
    times = np.linspace(0.0, 1.0, 20)

    spec_dd = gauss_spec(mass=5.0)
    g = spec_dd.grid()
    u1 = g.with_values(np.ones(N))
    for t in times:
        ok &= abs(death_diffusion_log_gf(spec_dd, u1, float(t))) <= 1e-12

    spec_bt = gauss_spec(kind="BrownianTree", mu=0.5, mass=5.0)
    for t in times:
        val = brownian_tree_log_gf(spec_bt, u1, float(t), steps=40)
        ok &= abs(val) <= 1e-9

    for t in times:
        ok &= abs(discrete_death_log_gf(5.0, 0.7, float(t), 1.0)) <= 1e-12
    report(capsys, 12, "GF normalization at u == 1", ok)
