import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reslat.errors import InvalidRadius
from reslat.metric import (
    Interval,
    IntervalBall,
    PairValue,
    SAlgebra,
    continuity_inequalities_check,
    d_bigstar,
    d_star,
    d_star_closed_form,
    d_star_closed_form_check,
    dbl_axioms_check,
    dbl_laws_check,
    interval_ball,
    metric_axioms_check,
    pair_metric_axioms_check,
    weaker_than_lukasiewicz,
)
from reslat.norms import closed_form, residuum
from reslat.unitval import ONE, ZERO, GridSpec, UnitValue

u = UnitValue
units = st.fractions(min_value=0, max_value=1).map(UnitValue)

LUK = SAlgebra.of("lukasiewicz")
GOE = SAlgebra.of("goedel")
PROD = SAlgebra.of("product")
ALL = (LUK, GOE, PROD)


class TestDistance:
    def test_spot_values(self):
        assert d_star(LUK, u("3/10"), u("7/10")) == Fraction(2, 5)
        assert d_star(GOE, u("3/10"), u("7/10")) == Fraction(7, 10)
        assert d_star(PROD, u(1, 4), u(3, 4)) == Fraction(2, 3)
        for alg in ALL:
            assert d_star(alg, u(2, 5), u(2, 5)) == ZERO

    def test_lukasiewicz_is_euclidean(self):
        for a, b in itertools.product(GridSpec(16).points(), repeat=2):
            assert d_star(LUK, a, b) == abs(a - b)

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.norm.kind.value)
    @given(units, units)
    def test_operations_are_the_plain_closed_forms(self, alg, x, y):
        # The grid tables take these callables; they skip apply_norm's cache lookup.
        assert alg.star is closed_form(alg.norm)
        assert alg.res(x, y) == residuum(alg.norm, x, y)

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.norm.kind.value)
    def test_closed_form_agreement(self, alg):
        report = d_star_closed_form_check(alg, GridSpec(32))
        assert report.ok, report.lines()

    @given(units, units)
    def test_symmetry_random(self, a, b):
        for alg in ALL:
            assert d_star(alg, a, b) == d_star(alg, b, a)

    @given(units, units, units)
    def test_star_triangle_random(self, a, b, c):
        for alg in ALL:
            assert d_star(alg, a, b) <= alg.star(d_star(alg, a, c), d_star(alg, c, b))


class TestMetricAxioms:
    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.norm.kind.value)
    def test_axioms_hold(self, alg):
        reports = metric_axioms_check(alg, GridSpec(16))
        assert [r.law_id for r in reports] == ["d-identity", "d-symmetry", "d-star-triangle", "d-triangle"]
        for report in reports:
            assert report.ok, report.lines()

    def test_all_three_families_are_weaker_than_lukasiewicz(self):
        for alg in ALL:
            assert weaker_than_lukasiewicz(alg, GridSpec(16))


class TestPairDistance:
    def test_spot_values(self):
        a = PairValue(u("3/10"), u("1/2"))
        b = PairValue(u("7/10"), u("3/5"))
        assert d_bigstar(LUK, a, b) == Fraction(1, 2)
        c = PairValue(u("7/10"), u("1/2"))
        assert d_bigstar(GOE, a, c) == Fraction(7, 10)
        for alg in ALL:
            assert d_bigstar(alg, a, a) == ZERO

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.norm.kind.value)
    def test_pair_axioms(self, alg):
        for report in pair_metric_axioms_check(alg, GridSpec(4)):
            assert report.ok, report.lines()


class TestContinuityContracts:
    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.norm.kind.value)
    def test_contracts_hold(self, alg):
        reports = continuity_inequalities_check(alg, GridSpec(8))
        assert [r.law_id for r in reports] == ["star-lipschitz", "res-lipschitz", "z1", "z2", "z3"]
        for report in reports:
            assert report.ok, report.lines()
            assert report.checked == 9**4

    def test_optimized_sweep_matches_naive(self):
        # independent re-derivation of the same inequalities, no interning
        alg = PROD
        g = GridSpec(4)
        pts = g.points()
        naive_bad = []
        for a1, a2, b1, b2 in itertools.product(pts, repeat=4):
            big = alg.star(d_star(alg, a1, b1), d_star(alg, a2, b2))
            if d_star(alg, alg.star(a1, a2), alg.star(b1, b2)) > big:
                naive_bad.append(("star-lipschitz", a1, a2, b1, b2))
            if d_star(alg, alg.res(a1, a2), alg.res(b1, b2)) > big:
                naive_bad.append(("res-lipschitz", a1, a2, b1, b2))
            if alg.res(a1, b2) > alg.star(alg.res(a1, b1), alg.res(b1, b2)):
                naive_bad.append(("z1", a1, a2, b1, b2))
            if alg.res(alg.res(b1, b2), alg.res(a1, a2)) > alg.star(alg.res(a1, b1), alg.res(b2, a2)):
                naive_bad.append(("z2", a1, a2, b1, b2))
            if alg.res(alg.res(a1, a2), alg.res(b1, b2)) > alg.star(alg.res(b1, a1), alg.res(a2, b2)):
                naive_bad.append(("z3", a1, a2, b1, b2))
        reports = continuity_inequalities_check(alg, g)
        assert naive_bad == []
        assert all(r.ok for r in reports)

    def test_detects_violations(self):
        # pairing min with the product residuum breaks the adjunction,
        # so the intermediate inequalities must trip; witnesses re-evaluate
        class Mismatched:
            norm = PROD.norm

            def star(self, x, y):
                return min(x, y)

            def res(self, x, y):
                return PROD.res(x, y)

        reports = continuity_inequalities_check(Mismatched(), GridSpec(4))
        by_id = {r.law_id: r for r in reports}
        assert not by_id["z1"].ok and not by_id["z2"].ok and not by_id["z3"].ok
        witness = by_id["z1"].witnesses[0]
        assert witness.lhs > witness.rhs
        a1, _, b1, b2 = (UnitValue(Fraction(str(v))) for v in witness.args)
        assert PROD.res(a1, b2) > min(PROD.res(a1, b1), PROD.res(b1, b2))


class TestLawSuites:
    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.norm.kind.value)
    def test_d_laws(self, alg):
        reports = dbl_laws_check(alg, GridSpec(8))
        assert [r.law_id for r in reports] == [f"D{i}" for i in range(1, 16)]
        for report in reports:
            assert report.ok, report.lines()

    def test_law_subset_selection(self):
        reports = dbl_laws_check(LUK, GridSpec(4), ids=["D2", "D13"])
        assert [r.law_id for r in reports] == ["D2", "D13"]

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.norm.kind.value)
    def test_signature_axioms(self, alg):
        for report in dbl_axioms_check(alg, GridSpec(8)):
            assert report.ok, report.lines()


class TestIntervalBalls:
    def test_goedel_singleton(self):
        ball = interval_ball(GOE, u("3/5"), u("1/2"))
        assert ball.describe() == "{3/5}"
        assert ball.contains(u("3/5"))
        assert not ball.contains(u("59/100"))
        assert ball.agreement_check().ok

    def test_goedel_initial_segment(self):
        ball = interval_ball(GOE, u("1/5"), u("1/2"))
        assert ball.describe() == "[0, 1/2)"
        assert ball.contains(ZERO) and ball.contains(u("49/100"))
        assert not ball.contains(u("1/2"))
        assert ball.agreement_check().ok

    def test_lukasiewicz_full_interval(self):
        ball = interval_ball(LUK, u(1, 2), ONE)
        assert ball.describe() == "[0, 1]"
        for b in GridSpec(10).points():
            assert ball.contains(b)
        assert ball.agreement_check().ok

    def test_lukasiewicz_interior(self):
        ball = interval_ball(LUK, u(1, 2), u(1, 4))
        assert ball.describe() == "(1/4, 3/4)"
        assert not ball.contains(u(1, 4)) and not ball.contains(u(3, 4))
        assert ball.contains(u(1, 2))

    def test_invalid_radius(self):
        with pytest.raises(InvalidRadius):
            interval_ball(LUK, u(1, 2), ZERO)

    @pytest.mark.parametrize("alg", ALL, ids=lambda a: a.norm.kind.value)
    def test_closed_forms_agree_on_refinement_grid(self, alg):
        centers = [ZERO, u(1, 5), u(1, 2), u(4, 5), ONE]
        radii = [u(1, 7), u(1, 3), u(2, 3), ONE]
        for center, radius in itertools.product(centers, radii):
            ball = interval_ball(alg, center, radius)
            report = ball.agreement_check()
            assert report.ok, (alg.norm.kind, center, radius, report.lines())

    @pytest.mark.parametrize(
        "alg, center, radius, piece",
        [
            # (1/4, 3/4), stopped 10^-7 short of 3/4
            (LUK, u(1, 2), u(1, 4), Interval(u(1, 4), False, u(Fraction(3, 4) - Fraction(1, 10**7)), False)),
            # (2/9, 3/7), run 10^-9 past 3/7
            (PROD, u(1, 3), u(1, 7), Interval(u(2, 9), False, u(Fraction(3, 7) + Fraction(1, 10**9)), False)),
        ],
        ids=["lukasiewicz-short", "product-long"],
    )
    def test_wrong_piece_between_sample_points_fails(self, alg, center, radius, piece):
        ball = IntervalBall(alg, center, radius, (piece,))
        # the 1000-point sample the check used to take sees no disagreement
        assert all(ball.contains(b) == ball.closed_form_contains(b) for b in GridSpec(1000).points())
        report = ball.agreement_check()
        assert not report.ok
        witness = report.witnesses[0]
        b = witness.args[2]
        assert (ball.contains(b), ball.closed_form_contains(b)) == (witness.lhs, witness.rhs)

    def test_product_ball_around_one_is_singleton(self):
        ball = interval_ball(PROD, ONE, ONE)
        assert ball.describe() == "{1}"
        assert ball.agreement_check().ok
