"""The integer kernels of the closed forms, and the order ranks of the tables.

The tables run a function's ``kernel`` attribute on the ids' numerators and
denominators when it has one, and otherwise the adapter kernel of
``kernels.kernel_of``, which runs the function itself on values.  Both paths
must intern the same values under the same ids, and a kernel whose result is
not a value in [0, 1] must be refused as ``UnitValue`` refuses it.
``ValueTable.ranks`` must order ids as ``le`` does.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reslat.metric as metric
import reslat.norms as norms
from reslat.kernels import ValueTable
from reslat.metric import SAlgebra, d_star, d_star_closed_form, d_star_closed_form_check
from reslat.norms import NormFamily, NormKind, NormSide, closed_form, residuum, residuum_form
from reslat.reports import LawReport, Violation
from reslat.unitval import GridSpec, UnitValue

from test_grid_tables import Broken, square

FAMILIES = [NormFamily(kind, side) for kind in NormKind for side in NormSide]
FORMS = [pytest.param(closed_form(f), id=f.describe()) for f in FAMILIES] + [
    pytest.param(residuum_form(f), id=f"{f.describe()} residuum") for f in FAMILIES if f.is_residuated
]
PRODUCT_NORMS = [closed_form(NormFamily(NormKind.PRODUCT, side)) for side in NormSide]


def plain(fn):
    """The same scalar function, without a kernel: the tables' value path."""
    return lambda x, y: fn(x, y)


def assert_same_tables(kernel_table, value_table):
    assert kernel_table.values == value_table.values
    assert all(type(v) is UnitValue for v in kernel_table.values)
    pairs = [(v.numerator, v.denominator) for v in kernel_table.values]
    assert pairs == [(v.numerator, v.denominator) for v in value_table.values]
    assert (kernel_table._num, kernel_table._den) == (value_table._num, value_table._den)
    assert (kernel_table.ranks() is None) == (value_table.ranks() is None)


def test_every_form_carries_its_kernel():
    for param in FORMS:
        form = param.values[0]
        assert callable(form.kernel)
        assert getattr(plain(form), "kernel", None) is None
    # The scalar residuum is its family's form.
    pts = GridSpec(6).points()
    for f in FAMILIES:
        if f.is_residuated:
            assert all(residuum(f, x, y) == residuum_form(f)(x, y) for x in pts for y in pts)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", (4, 7, 16))
def test_kernel_path_equals_value_path_on_the_grid(n, form):
    pts = GridSpec(n).points()
    kernel_table, value_table = ValueTable(pts), ValueTable(pts)
    by_kernel, by_value = kernel_table.operation(form), value_table.operation(plain(form))
    assert square(by_kernel, len(pts)) == square(by_value, len(pts))
    assert_same_tables(kernel_table, value_table)


def associativity_ids(table, fn, m):
    """The ids the associativity sweep of ``fn`` visits on the grid ``0..m-1``, in order."""
    rng = range(m)
    grid_tab = square(table.operation(fn), m)
    out = []
    for x, y in itertools.product(rng, repeat=2):
        out += table.map(fn, [grid_tab[x][y]] * m, rng) + table.map(fn, [x] * m, grid_tab[y])
    return out


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("norm", PRODUCT_NORMS, ids=("product-t", "product-s"))
@pytest.mark.parametrize("n", (4, 7, 16))
def test_kernel_path_equals_value_path_off_the_grid(n, norm, form):
    """The product associativity sweep, on both paths, and then every form on
    pairs drawn from the off-grid ids it created."""
    pts = GridSpec(n).points()
    m = len(pts)
    kernel_table, value_table = ValueTable(pts), ValueTable(pts)
    swept = associativity_ids(kernel_table, norm, m)
    assert swept == associativity_ids(value_table, plain(norm), m)
    assert len(kernel_table.values) > m
    assert_same_tables(kernel_table, value_table)

    rng = random.Random(n)
    ids = range(len(kernel_table.values))
    is_, js = rng.choices(ids, k=2000), rng.choices(ids, k=2000)
    by_kernel, by_value = kernel_table.operation(form), value_table.operation(plain(form))
    assert kernel_table.map(form, is_, js) == value_table.map(plain(form), is_, js)
    assert [by_kernel(i, j) for i, j in zip(js, is_)] == [by_value(i, j) for i, j in zip(js, is_)]
    assert_same_tables(kernel_table, value_table)


# -- kernels that break the contract -----------------------------------------------


def with_kernel(kernel):
    """A scalar function built on ``kernel``, as reslat.norms builds its forms."""

    def form(x, y):
        return UnitValue(*kernel(x.numerator, x.denominator, y.numerator, y.denominator))

    form.kernel = kernel
    return form


def refusal(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "pair",
    [(3, 2), (-1, 2), (1, -2), (2, -4), (5, 0), (0, 0), (10**5000 + 1, 10**5000), (-(10**5000), 3)],
    ids=["3/2", "-1/2", "1/-2", "2/-4", "5/0", "0/0", "long-above-1", "long-negative"],
)
def test_a_result_outside_the_unit_interval_is_refused_as_unitvalue_refuses_it(pair):
    expected = refusal(lambda: UnitValue(*pair))
    assert expected is not None
    table = ValueTable(GridSpec(4).points())
    form = with_kernel(lambda a, b, c, d: pair)
    assert refusal(lambda: table.operation(form)(1, 2)) == expected
    assert refusal(lambda: table.map(form, [3, 3], [0, 1])) == expected
    assert len(table.values) == 5


@pytest.mark.parametrize(
    "pair, value",
    [
        ((2, 4), Fraction(1, 2)),
        ((-1, -2), Fraction(1, 2)),
        ((-3, -12), Fraction(1, 4)),
        ((0, 7), Fraction(0)),
        ((0, -7), Fraction(0)),
        ((9, 9), Fraction(1)),
        ((2, 6), Fraction(1, 3)),
        ((-5, -15), Fraction(1, 3)),
    ],
    ids=str,
)
def test_an_unreduced_or_negative_pair_is_interned_under_its_canonical_id(pair, value):
    table = ValueTable(GridSpec(4).points())
    form = with_kernel(lambda a, b, c, d: pair)
    expected = table.intern(UnitValue(value))
    assert table.operation(form)(1, 2) == expected and table.map(form, [0], [3]) == [expected]
    assert table.values[expected] == value
    assert (table._num[expected], table._den[expected]) == (value.numerator, value.denominator)
    assert len(table.values) == (5 if value.denominator in (1, 2, 4) else 6)


# -- order ranks -------------------------------------------------------------------


def assert_ranks_order_like_le(table):
    ids = range(len(table.values))
    rank = table.ranks()
    assert (rank is None) == (table.ranks() is None) == (sorted(ids, key=table.values.__getitem__) == list(ids))
    rank = rank or ids
    assert sorted(rank) == list(ids)
    for i, j in itertools.product(ids, repeat=2):
        assert (rank[i] <= rank[j]) == table.le(i, j) == (table.values[i] <= table.values[j])


@given(
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=30), min_size=1, max_size=14),
    st.lists(st.tuples(st.integers(0, 13), st.sampled_from((-1, 1))), max_size=6),
    st.integers(0, 2**32),
)
def test_ranks_order_like_le(points, near, seed):
    """Points, and values 1/(3 * 10**30) away from some of them: such a
    value shares its point's float (except beside 0), so the table holds
    float ties; interned in a random order."""
    ties = [points[k % len(points)] + Fraction(step, 3 * 10**30) for k, step in near]
    values = [v for v in points + ties if 0 <= v <= 1]
    random.Random(seed).shuffle(values)
    table = ValueTable(UnitValue(v) for v in values)
    assert_ranks_order_like_le(table)


def test_ranks_break_float_ties_exactly():
    # Distinct values with one float: the float orders them only up to ties.
    big = 10**30
    close = [Fraction(big + 1, 3 * big), Fraction(1, 3), Fraction(big - 1, 3 * big), Fraction(1, 2)]
    assert len({float(v) for v in close[:3]}) == 1
    table = ValueTable(UnitValue(v) for v in close)
    assert table.ranks() is not None
    assert_ranks_order_like_le(table)
    assert table.ranks() == [2, 1, 0, 3]


def test_ranks_of_ordered_ids_are_the_ids():
    table = ValueTable(GridSpec(5).points())
    assert table.ranks() is None
    assert_ranks_order_like_le(table)


# -- the residuum oracle and the distance closed form on integers -------------------


def fraction_oracle(f, x, y, g):
    """The scanning residuum oracle on values: a UnitValue per candidate, the
    norm on values, and Fraction order."""
    denom, norm = norms._oracle_denominator(f, x, y, g), norms.closed_form(f)
    snorm_side = f.side is NormSide.SNORM
    bound = operator.ge if snorm_side else operator.le
    for k in range(denom + 1) if snorm_side else range(denom, -1, -1):
        c = UnitValue(k, denom)
        if bound(norm(c, x), y):
            return c
    raise AssertionError("unreachable: S(1, x) = 1 >= y and T(0, x) = 0 <= y")


RESIDUATED_FAMILIES = [f for f in FAMILIES if f.is_residuated]


def leaves_the_interval(f):
    """``f``'s norm on candidates below 1/2, and x + 2 (outside [0, 1]) from 1/2 on."""
    kernel = closed_form(f).kernel
    return with_kernel(lambda a, b, c, d: kernel(a, b, c, d) if 2 * a < b else (c + 2 * d, d))


def halved(f):
    """``f``'s norm at half its value: a wrong integer kernel that stays in [0, 1]."""
    kernel = closed_form(f).kernel

    def half(a, b, c, d):
        n, d = kernel(a, b, c, d)
        return n, 2 * d

    return with_kernel(half)


def outcome(call):
    """A call's result as its type, numerator and denominator, or its refusal."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
        return type(exc), str(exc)
    return type(value), value.numerator, value.denominator


@pytest.mark.parametrize("broken", ("valid", "moved", "halved", "outside"))
@pytest.mark.parametrize("f", RESIDUATED_FAMILIES, ids=NormFamily.describe)
@pytest.mark.parametrize("n", (4, 7, 16))
def test_residuum_oracle_scans_as_the_fraction_scan(n, f, broken, patch_norms):
    g = GridSpec(n)
    pts = g.points()
    valid = closed_form(f)
    if broken == "moved":  # a function on values, without a kernel
        patch_norms(f, lambda x, y: UnitValue(0) if (x, y) == (pts[2], pts[1]) else valid(x, y))
    elif broken == "halved":
        patch_norms(f, halved(f))
    elif broken == "outside":
        patch_norms(f, leaves_the_interval(f))
    outcomes = [
        (outcome(lambda: norms.residuum_oracle(f, x, y, g)), outcome(lambda: fraction_oracle(f, x, y, g)))
        for x, y in itertools.product(pts, repeat=2)
    ]
    assert all(got == expected for got, expected in outcomes)
    refused = sum(got[0] is ValueError for got, _ in outcomes)
    assert (refused > 0) == (broken == "outside")
    if broken in ("valid", "outside"):
        assert all(got[0] is UnitValue for got, _ in outcomes if got[0] is not ValueError)


def fraction_distance(kind, a, b):
    """The per-family closed form of the induced distance, in Fraction."""
    if kind is NormKind.LUKASIEWICZ:
        return abs(a - b)
    if a == b:
        return Fraction(0)
    if kind is NormKind.GOEDEL:
        return max(a, b)
    return abs(a - b) / (1 - min(a, b))


units = st.fractions(min_value=0, max_value=1, max_denominator=10**6)


@given(st.sampled_from([NormKind.LUKASIEWICZ, NormKind.GOEDEL, NormKind.PRODUCT]), units, units, st.booleans())
def test_distance_closed_form_is_the_fraction_formula(kind, a, b, equal):
    a, b = UnitValue(a), UnitValue(a if equal else b)
    got = d_star_closed_form(SAlgebra.of(kind), a, b)
    assert type(got) is UnitValue and got == fraction_distance(kind, a, b)


def ref_closed_form_check(alg, pts):
    """The closed-form check pair by pair: the definition against d_star_closed_form."""
    report = LawReport("d-closed-form")
    for a, b in itertools.product(pts, repeat=2):
        report.checked += 1
        lhs, rhs = d_star(alg, a, b), d_star_closed_form(alg, a, b)
        if lhs != rhs:
            report.register(Violation("d-closed-form", (a, b), lhs, rhs))
    return report


@pytest.mark.parametrize("how", ("valid", "closed-form", "norm-entry", "residuum-entry"))
@pytest.mark.parametrize("kind", [NormKind.LUKASIEWICZ, NormKind.GOEDEL, NormKind.PRODUCT], ids=lambda k: k.value)
@pytest.mark.parametrize("n", (4, 9))
def test_distance_closed_form_check_registers_the_same_witnesses(n, kind, how, monkeypatch):
    pts = GridSpec(n).points()
    alg = Broken(kind, how, pts)
    if how == "closed-form":  # the closed form itself off at the pairs (x, y) with x < y
        kernel = metric._DISTANCE_KERNELS[kind]
        monkeypatch.setitem(
            metric._DISTANCE_KERNELS, kind, lambda a, b, c, d: (0, 1) if a * d < c * b else kernel(a, b, c, d)
        )
    got = d_star_closed_form_check(alg, GridSpec(n))
    assert got.to_dict() == ref_closed_form_check(alg, pts).to_dict()
    assert got.ok == (how == "valid")
