"""The integer kernels of the closed forms, and the order ranks of the tables.

The tables run a function's ``kernel`` attribute on the ids' numerators and
denominators when it has one, and otherwise the adapter kernel of
``tables.kernel_of``, which runs the function itself on values.  Both paths
must intern the same values under the same ids, and a kernel whose result is
not a value in [0, 1] must be refused as ``UnitValue`` refuses it.
``ValueTable.ranks`` must order ids as ``le`` does.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reslat.norms import NormFamily, NormKind, NormSide, closed_form, residuum, residuum_form
from reslat.tables import ValueTable
from reslat.unitval import GridSpec, UnitValue

from test_grid_tables import square

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
    assert kernel_table.ids_ordered == value_table.ids_ordered


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
    assert (rank is None) == table.ids_ordered == (sorted(ids, key=table.values.__getitem__) == list(ids))
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
    assert not table.ids_ordered
    assert_ranks_order_like_le(table)
    assert table.ranks() == [2, 1, 0, 3]


def test_ranks_of_ordered_ids_are_the_ids():
    table = ValueTable(GridSpec(5).points())
    assert table.ids_ordered and table.ranks() is None
    assert_ranks_order_like_le(table)
