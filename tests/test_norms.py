from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reslat.errors import DrasticNotResiduated
from reslat.norms import (
    NormFamily,
    NormKind,
    NormSide,
    adjointness_check,
    apply_norm,
    dual_check,
    duality_check,
    dualize,
    norm_axioms_check,
    oracle_agreement_check,
    ordering_chain_check,
    residuum,
    residuum_oracle,
)
from reslat.unitval import ONE, ZERO, GridSpec, UnitValue

u = UnitValue
units = st.fractions(min_value=0, max_value=1).map(UnitValue)

S = {k: NormFamily.s_norm(k) for k in NormKind}
T = {k: NormFamily.t_norm(k) for k in NormKind}
RESIDUATED = (NormKind.LUKASIEWICZ, NormKind.GOEDEL, NormKind.PRODUCT)


class TestClosedForms:
    def test_snorm_values(self):
        assert apply_norm(S[NormKind.LUKASIEWICZ], u("3/10"), u("4/5")) == ONE
        assert apply_norm(S[NormKind.PRODUCT], u(1, 2), u(1, 2)) == Fraction(3, 4)
        for x in GridSpec(8).points():
            assert apply_norm(S[NormKind.GOEDEL], x, ZERO) == x

    def test_drastic_snorm_standard_definition(self):
        # boundary rows follow max; any interior pair saturates to 1
        assert apply_norm(S[NormKind.DRASTIC], ZERO, u(1, 3)) == Fraction(1, 3)
        assert apply_norm(S[NormKind.DRASTIC], u(1, 4), u(1, 3)) == ONE
        assert apply_norm(T[NormKind.DRASTIC], u(1, 4), u(1, 3)) == ZERO
        assert apply_norm(T[NormKind.DRASTIC], ONE, u(1, 3)) == Fraction(1, 3)

    def test_tnorm_values(self):
        assert apply_norm(T[NormKind.LUKASIEWICZ], u("7/10"), u("1/5")) == ZERO
        assert apply_norm(T[NormKind.GOEDEL], u(1, 3), u(2, 3)) == Fraction(1, 3)
        assert apply_norm(T[NormKind.PRODUCT], u(1, 2), u(1, 2)) == Fraction(1, 4)


class TestDuality:
    def test_spot_values(self):
        assert dual_check(S[NormKind.LUKASIEWICZ], u("3/10"), u("4/5"))
        assert dual_check(S[NormKind.PRODUCT], u(1, 2), u(1, 2))
        for x in GridSpec(8).points():
            assert dual_check(S[NormKind.GOEDEL], x, x)

    def test_dualize_flips_side(self):
        f = S[NormKind.PRODUCT]
        assert dualize(f).side is NormSide.TNORM
        assert dualize(dualize(f)) == f

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_exhaustive_on_grid(self, kind):
        assert duality_check(kind, GridSpec(16)).ok

    @given(units, units)
    def test_random_rationals(self, x, y):
        for kind in NormKind:
            assert dual_check(NormFamily.s_norm(kind), x, y)


class TestAxioms:
    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("side", list(NormSide))
    def test_grid_axioms(self, kind, side):
        for report in norm_axioms_check(NormFamily(kind, side), GridSpec(8)):
            assert report.ok, report.lines()

    @given(units, units)
    def test_commutative_random(self, x, y):
        for kind in NormKind:
            for side in NormSide:
                f = NormFamily(kind, side)
                assert apply_norm(f, x, y) == apply_norm(f, y, x)

    @given(units)
    def test_boundary_random(self, x):
        for kind in NormKind:
            assert apply_norm(NormFamily.t_norm(kind), ONE, x) == x
            assert apply_norm(NormFamily.s_norm(kind), ZERO, x) == x


def test_ordering_chains():
    assert ordering_chain_check(NormSide.TNORM, GridSpec(16)).ok
    assert ordering_chain_check(NormSide.SNORM, GridSpec(16)).ok


class TestResiduum:
    def test_snorm_closed_forms(self):
        assert residuum(S[NormKind.LUKASIEWICZ], u("3/10"), u("7/10")) == Fraction(2, 5)
        assert residuum(S[NormKind.GOEDEL], u("7/10"), u("3/10")) == ZERO
        assert residuum(S[NormKind.GOEDEL], u("3/10"), u("7/10")) == Fraction(7, 10)
        assert residuum(S[NormKind.PRODUCT], u(1, 2), u(3, 4)) == Fraction(1, 2)

    def test_tnorm_closed_forms(self):
        assert residuum(T[NormKind.LUKASIEWICZ], u("4/5"), u("3/10")) == Fraction(1, 2)
        assert residuum(T[NormKind.GOEDEL], u(1, 3), u(2, 3)) == ONE
        assert residuum(T[NormKind.GOEDEL], u(2, 3), u(1, 3)) == Fraction(1, 3)
        assert residuum(T[NormKind.PRODUCT], u(1, 2), u(1, 4)) == Fraction(1, 2)

    def test_drastic_errors(self):
        with pytest.raises(DrasticNotResiduated):
            residuum(S[NormKind.DRASTIC], u(1, 2), u(1, 2))
        with pytest.raises(DrasticNotResiduated):
            residuum_oracle(S[NormKind.DRASTIC], u(1, 2), u(1, 2), GridSpec(4))
        with pytest.raises(DrasticNotResiduated):
            adjointness_check(S[NormKind.DRASTIC], GridSpec(4))


class TestOracle:
    def test_scan_examples(self):
        assert residuum_oracle(S[NormKind.LUKASIEWICZ], u("3/10"), u("7/10"), GridSpec(10)) == Fraction(2, 5)
        assert residuum_oracle(S[NormKind.GOEDEL], u("7/10"), u("3/10"), GridSpec(10)) == ZERO
        assert residuum_oracle(S[NormKind.PRODUCT], u(1, 2), u(3, 4), GridSpec(4)) == Fraction(1, 2)

    def test_product_refines_grid_beyond_inputs(self):
        # closed form (y-x)/(1-x) = 1/4 is not on any grid through 1/3 and 1/2
        x, y = u(1, 3), u(1, 2)
        assert residuum(S[NormKind.PRODUCT], x, y) == Fraction(1, 4)
        assert residuum_oracle(S[NormKind.PRODUCT], x, y, GridSpec(6)) == Fraction(1, 4)

    @pytest.mark.parametrize("kind", RESIDUATED)
    def test_agreement_on_grid(self, kind):
        report = oracle_agreement_check(S[kind], GridSpec(16))
        assert report.ok, report.lines()

    @pytest.mark.parametrize("kind", RESIDUATED)
    def test_tnorm_side_agreement(self, kind):
        g = GridSpec(8)
        for x in g.points():
            for y in g.points():
                assert residuum(T[kind], x, y) == residuum_oracle(T[kind], x, y, g)


class TestAdjointness:
    @pytest.mark.parametrize("kind", RESIDUATED)
    def test_snorm_exhaustive(self, kind):
        report = adjointness_check(S[kind], GridSpec(16))
        assert report.ok, report.lines()
        assert report.checked == 17**3

    def test_tnorm_side(self):
        assert adjointness_check(T[NormKind.LUKASIEWICZ], GridSpec(8)).ok

    def test_top_row_trivial(self):
        # a = 1 satisfies both sides: S(1, b) = 1 >= c and 1 >= R(b, c)
        f = S[NormKind.PRODUCT]
        for b in GridSpec(8).points():
            for c in GridSpec(8).points():
                assert apply_norm(f, ONE, b) >= c
                assert ONE >= residuum(f, b, c)

    @given(units, units, units)
    def test_random_triples(self, a, b, c):
        for kind in RESIDUATED:
            f = NormFamily.s_norm(kind)
            assert (a >= residuum(f, b, c)) == (apply_norm(f, a, b) >= c)


# The textbook expressions on plain Fractions: the reference for the closed
# forms and residua, which compute in integers.
TEXTBOOK_NORMS = {
    T[NormKind.LUKASIEWICZ]: lambda x, y: max(Fraction(0), x + y - 1),
    S[NormKind.LUKASIEWICZ]: lambda x, y: min(Fraction(1), x + y),
    T[NormKind.PRODUCT]: lambda x, y: x * y,
    S[NormKind.PRODUCT]: lambda x, y: x + y - x * y,
}
TEXTBOOK_RESIDUA = {
    S[NormKind.LUKASIEWICZ]: lambda x, y: Fraction(0) if x >= y else y - x,
    T[NormKind.LUKASIEWICZ]: lambda x, y: Fraction(1) if x <= y else 1 - x + y,
    S[NormKind.PRODUCT]: lambda x, y: Fraction(0) if x >= y else (y - x) / (1 - x),
    T[NormKind.PRODUCT]: lambda x, y: Fraction(1) if x <= y else y / x,
}

# Each argument draws its own denominator; the endpoints and equal
# arguments, where the clamps and the residuum guards switch, come often.
rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**9),
)
argument_pairs = st.one_of(st.tuples(rationals, rationals), rationals.map(lambda v: (v, v)))


def assert_same_unit_value(got, expected):
    """``got`` is the UnitValue of ``expected``, normalised as a Fraction:
    ValueTable.intern keys on the (numerator, denominator) pair."""
    assert type(got) is UnitValue
    assert got == expected
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


class TestIntegerForms:
    @pytest.mark.parametrize("family", list(TEXTBOOK_NORMS), ids=NormFamily.describe)
    @given(argument_pairs)
    def test_closed_form_matches_textbook(self, family, pair):
        x, y = pair
        assert_same_unit_value(apply_norm(family, u(x), u(y)), TEXTBOOK_NORMS[family](x, y))

    @pytest.mark.parametrize("family", list(TEXTBOOK_RESIDUA), ids=NormFamily.describe)
    @given(argument_pairs)
    def test_residuum_matches_textbook(self, family, pair):
        x, y = pair
        assert_same_unit_value(residuum(family, u(x), u(y)), TEXTBOOK_RESIDUA[family](x, y))
