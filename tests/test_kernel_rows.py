"""The kernel rows of reslat.kernels, and the fast paths built on them.

Product associativity and the star-triangle compare rows of a kernel
without interning them, also for a function without a kernel of its own,
the norm axioms read a closed grid's square as plain lists, adjointness is
decided by thresholds, and ``all_le`` compares order ranks when the ids are
out of order.  Each fast path hands a failure to the row sweep it replaces,
so every report must equal the brute-force reference of
``test_grid_tables.py``.  The breaks below sit where only the fast paths look
first: off the grid, deep inside a row, in a non-monotone column, and in a
third-level result outside [0, 1].  A slip that makes a fast test always
fail leaves every report right, so the last tests spy on the slow paths: on
valid input none of them runs.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reslat.kernels as kernels
import reslat.norms as norms
from reslat import laws
from reslat.finite import algebra_from_document, dbl_context
from reslat.fixtures import boolean_algebra, lukasiewicz_chain
from reslat.kernels import ValueTable, closed_form, kernel_of, kernel_row
from reslat.laws import D_LAWS, run_catalogue
from reslat.metric import (
    SAlgebra,
    _distance_square,
    _metric_laws,
    metric_axioms_check,
    pair_metric_axioms_check,
    PairValue,
)
from reslat.norms import (
    NormFamily,
    NormKind,
    NormSide,
    associativity_rows,
    norm_axioms_check,
    ordering_chain_check,
    residuated,
)
from reslat.unitval import ONE, ZERO, GridSpec, UnitValue

from test_grid_tables import (
    GRIDS,
    RESIDUATED,
    dicts,
    moved,
    ref_adjointness,
    ref_distance,
    ref_metric_axioms,
    ref_norm_axioms,
    ref_numeric,
    square,
)
from test_integer_kernels import FORMS, plain, refusal, with_kernel
from test_row_sweeps import assert_order_matches_le

PRODUCT = NormKind.PRODUCT


def kernel_moved(fn, at, value=None):
    """``fn`` with its entry at the pair of values ``at``, on the grid or
    off it, moved to ``value`` (by default to 1, or to 0 where it was 1), as
    a form that carries its kernel, so that the kernel rows meet the break."""
    x, y = at
    value = (ZERO if fn(x, y) == ONE else ONE) if value is None else value
    kernel = fn.kernel

    def moved_kernel(a, b, c, d):
        if a * x.denominator == x.numerator * b and c * y.denominator == y.numerator * d:
            return value.numerator, value.denominator
        return kernel(a, b, c, d)

    return with_kernel(moved_kernel)


# -- product associativity -------------------------------------------------------------


@pytest.mark.parametrize("where", ("first", "second"), ids=("T(s, z)", "T(x, t)"))
@pytest.mark.parametrize("side", tuple(NormSide), ids=lambda s: s.value)
@pytest.mark.parametrize("n", GRIDS)
def test_product_associativity_broken_at_one_off_grid_pair(n, side, where, patch_norms):
    """The off-grid value T(pts[1], pts[2]) as the first argument is met by
    the rows T(s, .) over the points; as the second, by the rows T(x, .)
    over the square's ids."""
    pts = GridSpec(n).points()
    family = NormFamily(PRODUCT, side)
    fn = norms.closed_form(family)
    off = fn(pts[1], pts[2])
    assert off not in pts
    broken = kernel_moved(fn, (off, pts[3]) if where == "first" else (pts[3], off))
    patch_norms(family, norm=broken)
    got = norms.norm_axioms_check(family, GridSpec(n))
    assert dicts(got) == dicts(ref_norm_axioms(broken, side, pts))
    assert not got[0].ok and all(r.ok for r in got[1:])


@pytest.mark.parametrize("n", GRIDS)
def test_product_associativity_broken_to_a_value_off_the_common_denominator(n, patch_norms):
    """T(s, 0), for s = T(pts[1], pts[2]) off the grid, moved from 0 to
    1/(7 n^6): a denominator that divides no common denominator of the rows,
    over which the value would read as 0."""
    pts = GridSpec(n).points()
    family = NormFamily(PRODUCT, NormSide.TNORM)
    fn = norms.closed_form(family)
    broken = kernel_moved(fn, (fn(pts[1], pts[2]), ZERO), UnitValue(1, 7 * n**6))
    patch_norms(family, norm=broken)
    got = norms.norm_axioms_check(family, GridSpec(n))
    assert dicts(got) == dicts(ref_norm_axioms(broken, NormSide.TNORM, pts))
    assert not got[0].ok


@pytest.mark.parametrize("side", tuple(NormSide), ids=lambda s: s.value)
def test_product_associativity_without_a_kernel_is_decided_by_kernel_rows(side):
    """A function without a kernel runs on the adapter of ``kernel_of``: the
    rows decide, and no third-level value is interned."""
    table = ValueTable(GridSpec(8).points())
    sq = table.square(norms.closed_form(NormFamily(PRODUCT, side)))
    ids = len(table.values)
    assert ids > table.n_points
    assert associativity_rows(table, plain(norms.closed_form(NormFamily(PRODUCT, side))), sq) is None
    assert len(table.values) == ids


def sweep_in_row_order(fn, pts):
    """The two sides of associativity, a row of z at a time, in the order
    of the row sweep: the square first, then T(T(x, y), .) and T(x, T(y, .))."""
    tab = {(x, y): fn(x, y) for x in pts for y in pts}
    for x, y in itertools.product(pts, repeat=2):
        [fn(tab[x, y], z) for z in pts]
        [fn(x, tab[y, z]) for z in pts]


@pytest.mark.parametrize("n", GRIDS)
def test_a_third_level_result_outside_the_unit_interval_is_refused_as_the_row_sweep_refuses_it(n, patch_norms):
    """The product, except that a first argument off the grid gives a value
    above 1 that depends on both arguments, so the first one refused names
    the order in which the results were computed."""
    pts = GridSpec(n).points()
    family = NormFamily(PRODUCT, NormSide.TNORM)
    broken = with_kernel(lambda a, b, c, d: (a * c, b * d) if n % b == 0 else (b * d + a * d + c, b * d))
    patch_norms(family, norm=broken)
    expected = refusal(lambda: sweep_in_row_order(broken, pts))
    assert expected is not None and expected[0] is ValueError
    assert refusal(lambda: norms.norm_axioms_check(family, GridSpec(n))) == expected


# -- the star-triangle -----------------------------------------------------------------


class WithStar:
    """The product s-algebra with another star."""

    def __init__(self, star):
        alg = SAlgebra.of(PRODUCT)
        self.norm, self.star, self.res = alg.norm, star, alg.res


def off_grid_star_break(points, d, pts):
    """The pair (d(a, c), d(c, b)) of the first (a, b, c) of ``points``, in
    tuple order, with both distances off the grid ``pts`` and d(a, b) > 0."""
    for a, b, c in itertools.product(points, repeat=3):
        if d(a, b) > 0 and d(a, c) not in pts and d(c, b) not in pts:
            return d(a, c), d(c, b)
    raise AssertionError("no such triple")


@pytest.mark.parametrize("n", GRIDS)
def test_product_star_triangle_broken_off_the_grid(n):
    pts = GridSpec(n).points()
    at = off_grid_star_break(pts, ref_distance(SAlgebra.of(PRODUCT)), pts)
    alg = WithStar(kernel_moved(SAlgebra.of(PRODUCT).star, at, ZERO))
    got = metric_axioms_check(alg, GridSpec(n))
    assert dicts(got) == dicts(ref_metric_axioms("d", pts, ref_distance(alg), alg.star, ref_numeric(alg, pts)))
    assert not got[2].ok


def test_a_valid_product_star_without_a_kernel_interns_nothing_for_the_star_triangle():
    pts = GridSpec(8).points()
    alg = SAlgebra.of(PRODUCT)
    table = ValueTable(pts)
    dist = _distance_square(table, alg)
    ids = len(table.values)
    assert max(map(max, dist)) >= table.n_points
    got = _metric_laws("d", pts, dist, table, plain(alg.star), True)
    assert dicts(got) == dicts(ref_metric_axioms("d", pts, ref_distance(alg), alg.star, ref_numeric(alg, pts)))
    assert all(r.ok for r in got) and len(table.values) == ids


def pair_distance(alg):
    d = ref_distance(alg)
    return lambda a, b: alg.star(d(a.first, b.first), d(a.second, b.second))


def test_pair_star_triangle_broken_off_the_grid():
    pts = GridSpec(3).points()
    pairs = [PairValue(x, y) for x in pts for y in pts]
    at = off_grid_star_break(pairs, pair_distance(SAlgebra.of(PRODUCT)), pts)
    alg = WithStar(kernel_moved(SAlgebra.of(PRODUCT).star, at, ZERO))
    got = pair_metric_axioms_check(alg, GridSpec(3))
    assert dicts(got) == dicts(ref_metric_axioms("pair", pairs, pair_distance(alg), alg.star, ref_numeric(alg, pts)))
    assert not got[2].ok


# -- adjointness by thresholds -----------------------------------------------------------


def near(value, pts, how, side):
    """The next point above ``value`` (below it at 1), or a value 1/113 away
    on the side where the set of a the residuum bounds loses a point: up on
    the s-side (a >= R), down on the t-side (a <= R)."""
    if how == "next-point":
        above = [p for p in pts if p > value]
        return above[0] if above else max(p for p in pts if p < value)
    step = Fraction(1, 113) if side is NormSide.SNORM else -Fraction(1, 113)
    return UnitValue(value + step if 0 <= value + step <= 1 else value - step)


@pytest.mark.parametrize("how", ("next-point", "off-grid"))
@pytest.mark.parametrize("side", tuple(NormSide), ids=lambda s: s.value)
@pytest.mark.parametrize("kind", RESIDUATED, ids=lambda k: k.value)
def test_adjointness_with_a_residuum_wrong_deep_inside_a_row(kind, side, how, patch_norms):
    """Every column of the norm is monotone; one residuum entry is near,
    but not at, its true value."""
    pts = GridSpec(16).points()
    family = NormFamily(kind, side)
    at = (pts[9], pts[4])
    true = norms.residuum_form(family)
    value = near(true(*at), pts, how, side)
    res = lambda x, y: value if (x, y) == at else true(x, y)
    patch_norms(family, res=res)
    got = norms.adjointness_check(family, GridSpec(16))
    assert got.to_dict() == ref_adjointness(norms.closed_form(family), res, side, pts).to_dict()
    assert not got.ok


@pytest.mark.parametrize("side", tuple(NormSide), ids=lambda s: s.value)
@pytest.mark.parametrize("kind", RESIDUATED, ids=lambda k: k.value)
def test_adjointness_with_a_non_monotone_column(kind, side, patch_norms):
    pts = GridSpec(8).points()
    family = NormFamily(kind, side)
    fn = moved(norms.closed_form(family), (pts[5], pts[3]))
    column = [fn(a, pts[3]) for a in pts]
    assert column != sorted(column)
    patch_norms(family, norm=fn)
    got = norms.adjointness_check(family, GridSpec(8))
    assert got.to_dict() == ref_adjointness(fn, lambda x, y: norms.residuum(family, x, y), side, pts).to_dict()
    assert not got.ok


@given(st.data())
def test_thresholds_decide_as_the_biconditional_does(data):
    """``residuated`` on rank tables: true iff every column is monotone and
    the biconditional holds at every (a, b, c)."""
    m = data.draw(st.integers(1, 5), label="m")
    pts = sorted(data.draw(st.lists(st.integers(0, 9), min_size=m, max_size=m, unique=True), label="pts"))
    cols = [data.draw(st.lists(st.integers(0, 9), min_size=m, max_size=m)) for _ in range(m)]
    if data.draw(st.booleans(), label="monotone"):
        cols = [sorted(col) for col in cols]
    nrm = [list(row) for row in zip(*cols)]
    monotone = all(col == sorted(col) for col in cols)
    for upper in (True, False):
        # The residuum the thresholds give, with one entry perhaps moved.
        if upper:
            first = [[next((a for a in range(m) if nrm[a][b] >= pts[c]), m) for c in range(m)] for b in range(m)]
        else:
            first = [[sum(nrm[a][b] <= pts[c] for a in range(m)) - 1 for c in range(m)] for b in range(m)]
        res = [[pts[a] if 0 <= a < m else (10 if upper else -1) for a in row] for row in first]
        if data.draw(st.booleans(), label="move"):
            b, c = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
            res[b][c] = data.draw(st.integers(-1, 10))
        if upper:
            holds = all((pts[a] >= res[b][c]) == (nrm[a][b] >= pts[c]) for a, b, c in itertools.product(range(m), repeat=3))
        else:
            holds = all((pts[a] <= res[b][c]) == (nrm[a][b] <= pts[c]) for a, b, c in itertools.product(range(m), repeat=3))
        assert residuated(res, nrm, pts, upper) == (monotone and holds)


# -- the row primitive and the squares -----------------------------------------------------


@pytest.mark.parametrize(
    "pair",
    [(3, 2), (-1, 2), (1, -2), (2, -4), (5, 0), (0, 0), (10**5000 + 1, 10**5000), (-(10**5000), 3)],
    ids=["3/2", "-1/2", "1/-2", "2/-4", "5/0", "0/0", "long-above-1", "long-negative"],
)
def test_kernel_rows_refuse_a_result_as_unitvalue_refuses_it(pair):
    expected = refusal(lambda: UnitValue(*pair))
    kernel = lambda a, b, c, d: pair
    table = ValueTable(GridSpec(4).points())
    assert refusal(lambda: kernel_row(kernel, [1, 0], [4, 1], [3, 1], [4, 1])) == expected
    assert refusal(lambda: table.apply(kernel, [1, 2], [3, 0])) == expected
    assert refusal(lambda: table.square(with_kernel(kernel))) == expected
    assert len(table.values) == 5


@pytest.mark.parametrize(
    "value",
    [Fraction(3, 2), Fraction(-1, 2), Fraction(10**5000 + 1, 10**5000), Fraction(-(10**5000), 3)],
    ids=["3/2", "-1/2", "long-above-1", "long-negative"],
)
def test_results_of_a_function_without_a_kernel_are_refused_as_unitvalue_refuses_them(value):
    expected = refusal(lambda: UnitValue(value))
    fn = lambda x, y: value
    table = ValueTable(GridSpec(4).points())
    assert refusal(lambda: table.map(fn, [1, 2], [3, 0])) == expected
    assert refusal(lambda: table.square(fn)) == expected
    assert refusal(lambda: table.operation(fn)(1, 2)) == expected
    # A sum leaves [0, 1] as soon as both arguments exceed 1/2.
    assert refusal(lambda: table.map(lambda x, y: x + y, [3, 4], [3, 0])) == (ValueError, "value 3/2 outside [0, 1]")
    assert len(table.values) == 5


@pytest.mark.parametrize("pair, value", [((2, 4), Fraction(1, 2)), ((-1, -2), Fraction(1, 2)), ((0, -7), Fraction(0))])
def test_kernel_rows_reduce_as_unitvalue_does(pair, value):
    kernel = lambda a, b, c, d: pair
    ns, ds = kernel_row(kernel, [1, 0], [4, 1], [3, 1], [4, 1])
    assert [Fraction(n, d) for n, d in zip(ns, ds)] == [value, value] and min(ds) > 0
    table = ValueTable(GridSpec(4).points())
    assert table.apply(kernel, [1, 2], [3, 0]) == [table.intern(UnitValue(value))] * 2
    assert kernel_row(kernel, [], [], [], []) == ((), ())


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", (4, 7, 16))
def test_a_square_by_kernel_rows_is_the_square_by_values(n, form):
    pts = GridSpec(n).points()
    kernel_table, value_table = ValueTable(pts), ValueTable(pts)
    assert kernel_table.square(form) == square(value_table.operation(plain(form)), len(pts))
    assert kernel_table.values == value_table.values
    assert kernel_table.square(form) is kernel_table.square(form)  # once per table and function
    ids = range(len(kernel_table.values))
    assert kernel_table.complements(ids) == [kernel_table.intern(UnitValue(1 - v)) for v in kernel_table.values[: len(ids)]]


# -- all_le on ranks ---------------------------------------------------------------------


def test_all_le_on_floats_when_ids_are_out_of_order():
    table = ValueTable(UnitValue(v) for v in (Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(0), Fraction(2, 7)))
    assert table.ranks() is not None
    assert_order_matches_le(table)


def test_all_le_decides_exactly_when_two_values_share_a_float():
    big = 10**30
    close = [Fraction(big + 1, 3 * big), Fraction(1, 3), Fraction(big - 1, 3 * big), Fraction(1, 2)]
    table = ValueTable(UnitValue(v) for v in close)
    assert table.ranks() is not None
    assert_order_matches_le(table)
    assert not table.all_le([0], [1]) and table.all_le([2, 1], [1, 0])


# -- the slow paths stay idle on valid input ---------------------------------------------


def counting(monkeypatch, owner, name):
    """The number of calls of ``owner.name`` while the test runs."""
    calls, fn = [0], getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("side", list(NormSide), ids=lambda s: s.value)
@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_monotonicity_of_a_valid_norm_is_one_chain_of_row_comparisons(monkeypatch, kind, side):
    g = GridSpec(8)
    calls = counting(monkeypatch, ValueTable, "all_le")
    assert all(r.ok for r in norm_axioms_check(NormFamily(kind, side), g))
    assert calls[0] == len(g.points()) - 1


@pytest.mark.parametrize("side", list(NormSide), ids=lambda s: s.value)
def test_a_valid_ordering_chain_compares_no_single_pair(monkeypatch, side):
    calls = counting(monkeypatch, ValueTable, "le")
    assert ordering_chain_check(side, GridSpec(8)).ok
    assert calls[0] == 0


class Order:
    """An order table that counts the row comparisons reading it: a ``>=``
    clause looks up ``__getitem__`` once per row it compares."""

    def __init__(self, rows):
        self.rows, self.compared = rows, 0

    @property
    def __getitem__(self):
        self.compared += 1
        return self.rows.__getitem__


def test_a_valid_algebra_compares_each_clause_once_per_prefix():
    ctx = dbl_context(algebra_from_document(lukasiewicz_chain(5)))
    ctx.le = order = Order(ctx.le)
    # The laws whose clauses all compare by the order and read it nowhere else.
    catalogue = [laws._LATTICE] + [law for law in D_LAWS if law[0] in ("D3", "D7", "D9", "D10", "D14", "D15")]
    assert all(r.ok for r in run_catalogue(ctx, catalogue))
    # One comparison of a whole row of the last variable per prefix and clause.
    assert order.compared == sum(5 ** (arity - 1) * len(clauses) for _, arity, _, clauses in catalogue)


def test_a_valid_order_is_found_transitive_without_a_walk_over_triples(monkeypatch):
    product, walks = itertools.product, []
    monkeypatch.setattr(itertools, "product", lambda *args, repeat=1: walks.append(repeat) or product(*args, repeat=repeat))
    for doc in (lukasiewicz_chain(6), boolean_algebra(3)):
        algebra_from_document(doc)
    assert 2 in walks and 3 not in walks


@pytest.mark.parametrize("side", list(NormSide), ids=lambda s: s.value)
@pytest.mark.parametrize("kind", RESIDUATED, ids=lambda k: k.value)
def test_a_valid_adjointness_is_decided_without_a_row_per_pair(monkeypatch, kind, side):
    product, walks = itertools.product, []
    monkeypatch.setattr(itertools, "product", lambda *args, repeat=1: walks.append(repeat) or product(*args, repeat=repeat))
    assert norms.adjointness_check(NormFamily(kind, side), GridSpec(16)).ok
    assert walks == []


def test_a_kernel_row_in_range_builds_no_unitvalue(monkeypatch):
    pts = GridSpec(8).points()
    built = counting(monkeypatch, kernels, "UnitValue")
    xn, xd = [x.numerator for x in pts], [x.denominator for x in pts]
    ns, ds = kernel_row(kernel_of(closed_form(NormFamily.s_norm(PRODUCT))), xn, xd, xn[::-1], xd[::-1])
    assert list(map(Fraction, ns, ds)) == [x + y - x * y for x, y in zip(pts, pts[::-1])]
    assert built[0] == 0
