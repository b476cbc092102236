"""The row engine of reslat.tables, and the row sweeps built on it.

``ValueTable.map`` and the scalar ``ValueTable.operation`` must give the ids
the scalar definition gives, the operation computing each pair once,
``all_le`` the order ``le`` gives, and the checkers that compare
whole rows the same reports as the brute-force references of
``test_grid_tables.py`` when a broken entry sits deep inside a long row.
"""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reslat.norms as norms
from reslat.laws import lazy_table
from reslat.metric import SAlgebra, continuity_inequalities_check, metric_axioms_check
from reslat.norms import NormFamily, NormKind, NormSide
from reslat.tables import ValueTable
from reslat.unitval import GridSpec, UnitValue

from test_grid_tables import (
    dicts,
    moved,
    ref_adjointness,
    ref_continuity,
    ref_distance,
    ref_duality,
    ref_metric_axioms,
    ref_norm_axioms,
    ref_numeric,
    ref_ordering,
)

RESIDUATED = tuple(k for k in NormKind if k is not NormKind.DRASTIC)


# -- ValueTable.map and the scalar operation ---------------------------------------------


def product(x, y):
    return UnitValue(x * y)


def product_table(n):
    """The grid 0..n with a few values off it, the product norm on ids as the
    lazy table a law context keeps, and that table's calls of the norm
    counted."""
    table = ValueTable(GridSpec(n).points())
    for v in (Fraction(1, 7), Fraction(2, 9), Fraction(5, 11)):
        table.intern(UnitValue(v))
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return product(x, y)

    return table, lazy_table(table.operation(counted)), calls


def by_definition(table, i, j):
    return table.intern(table.values[i] * table.values[j])


ids = st.lists(st.integers(0, 11), max_size=40)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 11), ids), min_size=1, max_size=6), st.integers(0, 2**32))
def test_row_and_map_equal_the_scalar_definition(queries, seed):
    table, op, calls = product_table(8)
    rng = random.Random(seed)
    for i, js in queries:
        # Some entries asked for one at a time first, so table rows are filled part way.
        for j in rng.sample(js, len(js) // 3):
            assert op[i][j] == by_definition(table, i, j)
        assert table.map(product, [i] * len(js), js) == [by_definition(table, i, j) for j in js]
        assert [op[i][j] for j in js] == [by_definition(table, i, j) for j in js]
        # Off-grid ids that only now exist.
        fresh = [op[i][j] for j in js] + js
        is_ = [rng.choice(fresh) for _ in fresh]
        expected = [by_definition(table, i, j) for i, j in zip(is_, fresh)]
        assert table.map(product, is_, fresh) == expected
        assert [op[i][j] for i, j in zip(is_, fresh)] == expected
    assert len(calls) == len(set(calls))


def test_rows_reach_past_their_length_without_growing_to_every_id():
    table, op, calls = product_table(4)
    far = table.intern(UnitValue(1, 1000))
    assert table.map(product, [far, far], [0, far]) == [by_definition(table, far, 0), by_definition(table, far, far)]
    assert table.map(product, [], []) == []
    is_, js = [far, 1, far, far, far], [2, far, 2, 0, far]
    expected = [by_definition(table, i, j) for i, j in zip(is_, js)]
    assert table.map(product, is_, js) == expected
    assert [op[i][j] for i, j in zip(is_, js)] == expected
    assert len(calls) == len(set(calls)) == 4


# -- all_le -------------------------------------------------------------------------


def assert_order_matches_le(table):
    n = len(table.values)
    pairs = list(itertools.product(range(n), repeat=2))
    expected = [table.values[x] <= table.values[y] for x, y in pairs]
    assert expected == [table.le(x, y) for x, y in pairs]
    for x, y in pairs:
        assert table.all_le([x], [y]) == (table.values[x] <= table.values[y])
    for x in range(n):
        row = [table.values[x] <= table.values[y] for y in range(n)]
        assert table.all_le([x] * n, range(n)) == all(row)


def test_all_le_on_a_grid_and_after_an_off_grid_intern():
    table = ValueTable(GridSpec(6).points())
    assert table.ids_ordered
    assert_order_matches_le(table)
    table.intern(UnitValue(1, 7))  # id 7, below the ids 1..6
    assert not table.ids_ordered
    assert_order_matches_le(table)


def test_ids_interned_in_increasing_order_keep_id_order():
    table = ValueTable([UnitValue(0), UnitValue(1, 3)])
    table.intern(UnitValue(1, 2))
    table.intern(UnitValue(1))
    table.intern(UnitValue(1, 3))  # already there: no new id
    assert table.ids_ordered
    assert_order_matches_le(table)


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=20), min_size=1, max_size=12))
def test_all_le_on_arbitrary_points(points):
    table = ValueTable(UnitValue(p) for p in points)
    distinct = list(dict.fromkeys(points))
    assert table.ids_ordered == (distinct == sorted(distinct))
    assert_order_matches_le(table)


# -- broken entries deep inside long rows ----------------------------------------------


@pytest.fixture
def break_entry(monkeypatch):
    """One entry of a family's closed form, or of its residuum, moved inside norms.py."""

    def install(family, at, residuum_at=None):
        closed_form, residuum = norms.closed_form, norms.residuum
        fn = moved(closed_form(family), at) if at else closed_form(family)
        res = partial(residuum, family) if family.is_residuated else None
        if residuum_at:
            res = moved(res, residuum_at)
        monkeypatch.setattr(norms, "closed_form", lambda f: fn if f == family else closed_form(f))
        monkeypatch.setattr(norms, "residuum", lambda f, x, y: res(x, y) if f == family else residuum(f, x, y))
        return fn, res

    return install


@pytest.mark.parametrize("side", tuple(NormSide), ids=lambda s: s.value)
@pytest.mark.parametrize("kind", tuple(NormKind), ids=lambda k: k.value)
def test_norm_axioms_with_a_deep_broken_entry(kind, side, break_entry):
    pts = GridSpec(32).points()
    family = NormFamily(kind, side)
    fn, _ = break_entry(family, (pts[29], pts[17]))
    got = norms.norm_axioms_check(family, GridSpec(32))
    assert dicts(got) == dicts(ref_norm_axioms(fn, side, pts))
    assert not all(r.ok for r in got)


@pytest.mark.parametrize("broken", ("norm", "residuum"))
@pytest.mark.parametrize("kind", RESIDUATED, ids=lambda k: k.value)
def test_adjointness_with_a_deep_broken_entry(kind, broken, break_entry):
    pts = GridSpec(16).points()
    family = NormFamily.s_norm(kind)
    entry = (pts[13], pts[11])
    fn, res = break_entry(family, entry if broken == "norm" else None, entry if broken == "residuum" else None)
    got = norms.adjointness_check(family, GridSpec(16))
    assert got.to_dict() == ref_adjointness(fn, res, NormSide.SNORM, pts).to_dict()
    assert not got.ok


@pytest.mark.parametrize("kind", tuple(NormKind), ids=lambda k: k.value)
def test_duality_with_a_deep_broken_entry(kind, break_entry):
    pts = GridSpec(16).points()
    s_norm, _ = break_entry(NormFamily.s_norm(kind), (pts[14], pts[9]))
    got = norms.duality_check(kind, GridSpec(16))
    assert got.to_dict() == ref_duality(s_norm, norms.closed_form(NormFamily.t_norm(kind)), pts).to_dict()
    assert not got.ok


@pytest.mark.parametrize("side", tuple(NormSide), ids=lambda s: s.value)
def test_ordering_with_a_deep_broken_entry(side, break_entry):
    pts = GridSpec(16).points()
    break_entry(NormFamily(NormKind.LUKASIEWICZ, side), (pts[12], pts[10]))
    if side is NormSide.TNORM:
        chain = [NormKind.DRASTIC, NormKind.LUKASIEWICZ, NormKind.PRODUCT, NormKind.GOEDEL]
    else:
        chain = [NormKind.GOEDEL, NormKind.PRODUCT, NormKind.LUKASIEWICZ, NormKind.DRASTIC]
    fns = [norms.closed_form(NormFamily(k, side)) for k in chain]
    got = norms.ordering_chain_check(side, GridSpec(16))
    assert got.to_dict() == ref_ordering(fns, [k.value for k in chain], pts).to_dict()
    assert not got.ok


class DeepBroken:
    """An s-algebra with one star entry or one residuum entry moved."""

    def __init__(self, kind, star_at=None, res_at=None):
        alg = SAlgebra.of(kind)
        self.norm = alg.norm
        self.star = moved(alg.star, star_at) if star_at else alg.star
        self.res = moved(alg.res, res_at) if res_at else alg.res


@pytest.mark.parametrize("broken", ("norm", "residuum"))
@pytest.mark.parametrize("kind", RESIDUATED, ids=lambda k: k.value)
def test_metric_axioms_with_a_deep_broken_entry(kind, broken):
    pts = GridSpec(16).points()
    # A star entry of 1 moved to 0: the star-triangle bound it gives shrinks.
    star_at, res_at = ((pts[16], pts[6]), None) if broken == "norm" else (None, (pts[13], pts[6]))
    alg = DeepBroken(kind, star_at, res_at)
    got = metric_axioms_check(alg, GridSpec(16))
    assert dicts(got) == dicts(ref_metric_axioms("d", pts, ref_distance(alg), alg.star, ref_numeric(alg, pts)))
    assert not all(r.ok for r in got)


@pytest.mark.parametrize(
    "kind, broken",
    [
        (NormKind.LUKASIEWICZ, "norm"),
        (NormKind.GOEDEL, "residuum"),
        (NormKind.PRODUCT, "norm"),
        (NormKind.PRODUCT, "residuum"),
    ],
    ids=lambda v: getattr(v, "value", v),
)
def test_continuity_with_a_deep_broken_entry(kind, broken):
    pts = GridSpec(12).points()
    entry = (pts[10], pts[7])
    alg = DeepBroken(kind, entry if broken == "norm" else None, entry if broken == "residuum" else None)
    got = continuity_inequalities_check(alg, GridSpec(12))
    assert dicts(got) == dicts(ref_continuity(alg, pts))
    assert not all(r.ok for r in got)
