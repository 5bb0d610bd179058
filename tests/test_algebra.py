import random
from fractions import Fraction

import pytest

from rdito.algebra import (
    AlgebraError,
    ContractionOverflow,
    FULL,
    INF,
    OperatorExpr,
    OperatorTerm,
    _MAX_PERM_VARS,
    _apply_matching,
    a,
    adag,
    declare_kernel,
    derive_table,
    doi_shift,
    expr,
    ito_product,
    make_family,
    normal_order,
    term,
)
from oracles import count_contractions, evaluate_scalar, is_normal


def normal_order_by_commutators(e: OperatorExpr, max_steps: int = 200_000) -> OperatorExpr:
    """Independent rewrite oracle for normal_order: repeatedly apply [a_p, a+_q] = delta(p-q)
    to the leftmost out-of-order adjacent pair until every term is normal."""
    pending = list(e.terms)
    done: list[OperatorTerm] = []
    steps = 0
    while pending:
        steps += 1
        if steps > max_steps:
            raise AlgebraError("commutator rewrite did not terminate")
        t = pending.pop()
        # push creators left past annihilators one adjacent swap at a time;
        # a same-species swap also spawns the contracted delta term
        pos = contract = None
        for i, x in enumerate(t.ops[:-1]):
            y = t.ops[i + 1]
            if not x.dagger and y.dagger:
                pos = i
                contract = x.species == y.species
                break
        if pos is None:
            done.append(t)
            continue
        swapped = OperatorTerm(
            t.coeff,
            t.ops[:pos] + (t.ops[pos + 1], t.ops[pos]) + t.ops[pos + 2 :],
            t.bound,
        )
        pending.append(swapped)
        if contract:
            pending.append(_apply_matching(t, [(pos, pos + 1)], reorder=False))
    return OperatorExpr(done)


def fam(name, param=None):
    return make_family(name, param)


class TestNormalOrder:
    def test_single_pair_free_vars(self):
        # a_p a+_q -> a+_q a_p + delta(p-q)
        e = expr(term([a("p"), adag("q")]))
        no = normal_order(e)
        assert len(no.terms) == 2
        swapped = [t for t in no.terms if t.ops]
        deltas = [t for t in no.terms if not t.ops]
        assert len(swapped) == 1 and len(deltas) == 1
        assert [op.dagger for op in swapped[0].ops] == [True, False]
        assert deltas[0].coeff.factors[0][0] == "delta"

    def test_already_normal_unchanged(self):
        e = expr(term([adag("p"), a("p")], factors=[("H", ["p"])], bound=[("p", FULL, "p")]))
        assert normal_order(e) == e

    def test_xi_xi_seven_contractions_three_terms(self):
        declare_kernel("R", symmetric=True)
        declare_kernel("S", symmetric=True)
        xi_r = term(
            [adag("p"), adag("q"), a("p"), a("q")],
            numeric=Fraction(1, 2),
            factors=[("R", ["p", "q"])],
            bound=[("p", FULL, "u"), ("q", FULL, "u")],
        )
        xi_s = term(
            [adag("p2"), adag("q2"), a("p2"), a("q2")],
            numeric=Fraction(1, 2),
            factors=[("S", ["p2", "q2"])],
            bound=[("p2", FULL, "u"), ("q2", FULL, "u")],
        )
        prod = term(
            xi_r.ops + xi_s.ops,
            numeric=Fraction(1, 4),
            factors=[("R", ["p", "q"]), ("S", ["p2", "q2"])],
            bound=xi_r.bound + xi_s.bound,
        )
        assert count_contractions(prod) == 7
        no = normal_order(expr(prod))
        assert len(no.terms) == 3
        by_nops = {len(t.ops): t for t in no.terms}
        assert set(by_nops) == {8, 6, 4}
        assert by_nops[8].coeff.numeric == Fraction(1, 4)
        assert by_nops[6].coeff.numeric == Fraction(1, 1)
        assert by_nops[4].coeff.numeric == Fraction(1, 2)
        # the fully contracted term is Xi with the product kernel R*S
        t4 = by_nops[4]
        assert sorted(n for n, _ in t4.coeff.factors) == ["R", "S"]
        args = [set(v) for _, v in t4.coeff.factors]
        assert args[0] == args[1]

    def test_overflow(self):
        e = expr(term([a("p")] * 17, bound=[("p", FULL, "p")]))
        with pytest.raises(ContractionOverflow):
            normal_order(e)

    def test_contraction_count_matches_partial_matchings(self):
        # k fully contractible (a, a+) pairs: number of partial matchings of
        # the complete bipartite pairing, by brute force over pair subsets
        import itertools

        for k in range(1, 5):
            ops = [a(f"p{i}") for i in range(k)] + [adag(f"q{i}") for i in range(k)]
            t = term(ops)
            pairs = list(itertools.product(range(k), range(k)))
            count = 0
            for rsub in range(k + 1):
                for sub in itertools.combinations(pairs, rsub):
                    lefts = [i for i, _ in sub]
                    rights = [j for _, j in sub]
                    if len(set(lefts)) == rsub and len(set(rights)) == rsub:
                        count += 1
            assert count_contractions(t) == count
            assert len(normal_order(expr(t)).terms) == count  # all-free: no merging


def _random_term(rng, n_ops, n_vars=None):
    # operator monomials built from the units seen in Liouvillians: a fresh
    # variable per unit, either a lone operator or a number pair a+_v a_v
    # (variable reuse with an annihilator left of a same-variable creator
    # would be a singular delta(0) term)
    ops = []
    names = []
    i = 0
    while len(ops) < n_ops:
        v = f"v{i}"
        i += 1
        sp = rng.choice([0, 0, 1])
        if rng.random() < 0.3 and len(ops) + 2 <= n_ops:
            ops += [adag(v, species=sp), a(v, species=sp)]
        else:
            ops.append((adag if rng.random() < 0.5 else a)(v, species=sp))
        names.append(v)
    bound = [(v, FULL, "s") for v in names if rng.random() < 0.7]
    free = [v for v in names if v not in {b[0] for b in bound}]
    return term(ops, bound=bound), free


class TestWickVsCommutatorOracle:
    def test_random_terms_agree(self):
        rng = random.Random(1234)
        for _ in range(60):
            t, free = _random_term(rng, rng.randint(2, 8), rng.randint(1, 4))
            e = expr(t)
            try:
                got = normal_order(e)
            except AlgebraError:
                # squared-delta singular term; the oracle must agree it is one
                with pytest.raises(AlgebraError):
                    normal_order_by_commutators(e)
                continue
            assert got == normal_order_by_commutators(e)

    def test_all_normal_after(self):
        rng = random.Random(99)
        for _ in range(20):
            t, _ = _random_term(rng, rng.randint(2, 6), 3)
            for out in normal_order(expr(t)).terms:
                assert is_normal(out)


class TestItoProduct:
    def test_dA_dAdag_scalar(self):
        p = ito_product(fam("A").instance(["f"]), fam("Adag").instance(["g"]))
        assert len(p.terms) == 1
        t = p.terms[0]
        assert not t.ops and t.order() == 1
        assert sorted(n for n, _ in t.coeff.factors) == ["f", "g"]

    def test_dAdag_dA_zero(self):
        p = ito_product(fam("Adag").instance(["f"]), fam("A").instance(["g"]))
        assert p.is_zero()

    def test_dB_product_coefficient(self):
        for m in range(1, 5):
            for n in range(1, 5):
                p = ito_product(
                    fam("B", m).instance(["G"]), fam("B", n).instance(["H"])
                )
                assert len(p.terms) == 1
                t = p.terms[0]
                assert t.coeff.numeric == n
                assert sum(op.dagger for op in t.ops) == m + n - 1
                assert sum(not op.dagger for op in t.ops) == 1

    def test_dB_triple_right_grouped(self):
        for l, m, n in [(1, 2, 3), (2, 2, 2), (3, 1, 4), (2, 3, 1)]:
            inner = ito_product(fam("B", m).instance(["G"]), fam("B", n).instance(["H"]))
            p = ito_product(fam("B", l).instance(["F"]), inner)
            assert len(p.terms) == 1
            t = p.terms[0]
            assert t.coeff.numeric == n * (m + n - 1)
            assert sum(op.dagger for op in t.ops) == l + m + n - 2

    def test_xi_xi(self):
        declare_kernel("R", symmetric=True)
        declare_kernel("S", symmetric=True)
        p = ito_product(fam("Xi").instance(["R"]), fam("Xi").instance(["S"]))
        assert len(p.terms) == 1
        t = p.terms[0]
        assert t.coeff.numeric == Fraction(1, 2)
        assert len(t.ops) == 4 and t.order() == 2

    def test_distinct_positions_zero_both_orders(self):
        x = fam("Lambda").instance(["F"], site="p")
        y = fam("Lambda").instance(["G"], site="q")
        assert ito_product(x, y).is_zero()
        assert ito_product(y, x).is_zero()

    def test_non_associativity_witness(self):
        # (dLambda dB2) dB2 != dLambda (dB2 dB2): 4 vs 6
        lam = fam("Lambda").instance(["F"])
        b2g = fam("B", 2).instance(["G"])
        b2h = fam("B", 2).instance(["H"])
        left = ito_product(ito_product(lam, b2g), b2h)
        right = ito_product(lam, ito_product(b2g, b2h))
        assert left.terms[0].coeff.numeric == 4
        assert right.terms[0].coeff.numeric == 6
        assert left != right
        # right grouping is the product of the pairwise coefficients: 2 then 3
        assert right.terms[0].coeff.numeric == 2 * 3


class TestTables:
    def test_table1(self):
        fams = [fam("Lambda"), fam("A"), fam("Adag"), fam("dt")]
        table = derive_table(fams)
        assert len(table.entries) == 16
        def r(row, col):
            return table.entry(row, col).render()

        assert r("Lambda", "Lambda") == "dLambda[FG]"
        assert r("Lambda", "A") == "0"
        assert r("Lambda", "Adag") == "dAdag[FG]"
        assert r("Lambda", "dt") == "0"
        assert r("A", "Lambda") == "dA[FG]"
        assert r("A", "A") == "0"
        assert r("A", "Adag") == "<F,G> dt"
        assert r("A", "dt") == "0"
        for col in ["Lambda", "A", "Adag", "dt"]:
            assert r("Adag", col) == "0"
            assert r("dt", col) == "0"
        assert table.all_recognized()

    def test_table2_conversion(self):
        fams = [fam("M"), fam("Lambda")]
        table = derive_table(fams)
        assert table.entry("M", "M").kind == "zero"
        assert table.entry("M", "Lambda").render() == "dM[FG]"
        assert table.entry("Lambda", "M").kind == "zero"
        assert table.entry("Lambda", "Lambda").render() == "dLambda[FG]"

    def test_table3_dual_process(self):
        fams = [fam("X"), fam("Y")]
        table = derive_table(fams)
        assert table.entry("X", "X").kind == "zero"
        assert table.entry("X", "Y").kind == "zero"
        xy = table.entry("Y", "X")
        assert (xy.family, xy.scale) == ("X", Fraction(-1))
        assert xy.kernels == ("F", "G")
        yy = table.entry("Y", "Y")
        assert (yy.family, yy.scale) == ("Y", Fraction(-1))

    def test_omega_and_xi_against_b(self):
        """Products no other test reaches; in each the two-point kernel of
        Omega or Xi is read on the diagonal, F(p,p), as F."""
        table = derive_table([fam("Lambda"), fam("Omega"), fam("Xi"), fam("B", 2), fam("B", 3)])
        # a_x and a_y of Omega each contract with one of the two a+_z of B(2),
        # in 2 ways, leaving a+ a: a Lambda
        assert table.entry("Omega", "B(2)").render() == "2*dLambda[FG]"
        # the same two annihilators take two of the three a+_z in 3*2 ways
        assert table.entry("Omega", "B(3)").render() == "6*dB(2)[FG]"
        # 1/2 from Xi times the 2 ways to pair a_x, a_y with the a+_z a+_z
        assert table.entry("Xi", "B(2)").render() == "dB(2)[FG]"

    def test_equal_differentials_take_the_first_name_given(self):
        # B(1) = Lambda: the product reads as whichever was listed first
        lam = derive_table([fam("Lambda"), fam("B", 1)])
        assert lam.entry("Lambda", "Lambda").render() == "dLambda[FG]"
        b1 = derive_table([fam("B", 1), fam("Lambda")])
        assert b1.entry("Lambda", "Lambda").render() == "dB(1)[FG]"

    def test_idempotent_rederivation(self):
        fams = [fam("Lambda"), fam("A"), fam("Adag"), fam("dt")]
        t1 = derive_table(fams)
        t2 = derive_table(fams)
        assert t1.render_text() == t2.render_text()
        assert t1.render_json() == t2.render_json()


def annihilation_liouvillian():
    declare_kernel("R", symmetric=True)
    declare_kernel("DLap", derivative=True)
    gain = term(
        [a("p"), a("q")],
        numeric=Fraction(1, 2),
        factors=[("R", ["p", "q"])],
        bound=[("p", FULL, "x"), ("q", FULL, "x")],
    )
    loss = term(
        [adag("p"), adag("q"), a("p"), a("q")],
        numeric=Fraction(-1, 2),
        factors=[("R", ["p", "q"])],
        bound=[("p", FULL, "x"), ("q", FULL, "x")],
    )
    diff = term(
        [adag("p"), a("p")],
        factors=[("DLap", ["p"])],
        bound=[("p", FULL, "x")],
    )
    return expr(gain, loss, diff)


class TestDoiShift:
    def test_annihilation_liouvillian(self):
        # shift of the pair-annihilation Liouvillian: -Omega_R - Xi_R + Lambda_DLap
        shifted = doi_shift(annihilation_liouvillian())
        omega = term(
            [adag("p"), a("p"), a("q")],
            numeric=-1,
            factors=[("R", ["p", "q"])],
            bound=[("p", FULL, "x"), ("q", FULL, "x")],
        )
        xi = term(
            [adag("p"), adag("q"), a("p"), a("q")],
            numeric=Fraction(-1, 2),
            factors=[("R", ["p", "q"])],
            bound=[("p", FULL, "x"), ("q", FULL, "x")],
        )
        lam = term(
            [adag("p"), a("p")],
            factors=[("DLap", ["p"])],
            bound=[("p", FULL, "x")],
        )
        assert shifted == expr(omega, xi, lam)

    def test_annihilator_unchanged(self):
        e = expr(term([a("p")], bound=[("p", FULL, "x")]))
        assert doi_shift(e) == e

    def test_number_operator(self):
        # a+_p a_p -> a+_p a_p + a_p  (direct substitution oracle)
        e = expr(term([adag("p"), a("p")], bound=[("p", FULL, "x")]))
        got = doi_shift(e)
        want = expr(
            term([adag("p"), a("p")], bound=[("p", FULL, "x")]),
            term([a("p")], bound=[("p", FULL, "x")]),
        )
        assert got == want

    def test_other_species_untouched(self):
        e = expr(term([adag("p", species=1), a("p")], bound=[("p", FULL, "x")]))
        assert doi_shift(e, species=0) == e


class TestScalarEvaluation:
    def test_env_product(self):
        p = ito_product(fam("A").instance(["f"]), fam("Adag").instance(["g"]))
        assert evaluate_scalar(p, {"f": 2.0, "g": 3.5}) == pytest.approx(7.0)

    def test_missing_symbol(self):
        p = ito_product(fam("A").instance(["f"]), fam("Adag").instance(["g"]))
        with pytest.raises(AlgebraError):
            evaluate_scalar(p, {"f": 1.0})


def test_canonical_term_refuses_more_bound_variables_than_it_permutes():
    """Past _MAX_PERM_VARS the old first-appearance labelling was not
    canonical: with 7 bound variables, expr(t) - expr(t renamed) kept 2 terms
    and was not zero.  Such a term is refused rather than merged wrongly."""
    names = [f"p{i}" for i in range(_MAX_PERM_VARS + 1)]
    t = term([adag(v) for v in names], bound=[(v, FULL, v) for v in names])
    with pytest.raises(AlgebraError, match="bound variables"):
        expr(t)
    six = names[:-1]
    t6 = term([adag(v) for v in six], bound=[(v, FULL, v) for v in six])
    assert (expr(t6) - expr(t6.rename(dict(zip(six, six[3:] + six[:3]))))).is_zero()
