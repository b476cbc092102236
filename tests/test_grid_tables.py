"""The interned-id sweeps against brute-force references on plain values.

Each reference below is written from the definition of its law, evaluates
every operation afresh on the values themselves and compares with Fraction
order.  Every rewritten checker must produce the same ``to_dict()`` report,
witnesses, failure counts and ``checked`` included, on the residuated
families (and drastic, for the norm axioms) and on deliberately broken
operations: one perturbed norm entry, one perturbed residuum entry, and a
non-commutative norm.
"""

import functools
import itertools
import operator
from fractions import Fraction

import pytest

import reslat.norms as norms
from reslat.kernels import ValueTable
from reslat.laws import D_LAWS, LawContext, check_signature_axioms, lazy_table, run_catalogue
from reslat.metric import (
    SAlgebra,
    continuity_inequalities_check,
    dbl_axioms_check,
    dbl_laws_check,
    metric_axioms_check,
    pair_metric_axioms_check,
    PairValue,
)
from reslat.norms import NormFamily, NormKind, NormSide
from reslat.reports import LawReport, Violation
from reslat.unitval import ONE, ZERO, GridSpec, UnitValue

GRIDS = (4, 5, 8)
KINDS = tuple(NormKind)
RESIDUATED = tuple(k for k in NormKind if k is not NormKind.DRASTIC)
BREAKS = ("valid", "norm-entry", "residuum-entry", "non-commutative")
NORM_BREAKS = ("valid", "norm-entry", "non-commutative")


def dicts(reports):
    return [r.to_dict() for r in reports]


def square(op, n):
    """The ids ``op(i, j)`` for the first ``n`` ids (the grid), row by row."""
    return [[op(i, j) for j in range(n)] for i in range(n)]


# -- deliberately broken operations -------------------------------------------


def moved(fn, at):
    """``fn`` with its entry at ``at`` moved to 1, or to 0 where it was 1."""
    value = ZERO if fn(*at) == ONE else ONE
    return lambda x, y: value if (x, y) == at else fn(x, y)


def broken_norm(fn, how: str, pts):
    """``fn`` itself, with one entry moved, or made non-commutative."""
    if how == "norm-entry":
        return moved(fn, (pts[1], pts[0]))
    if how == "non-commutative":
        return lambda x, y: fn(x, y) if x <= y else UnitValue(fn(x, y) * y)
    return fn


def broken_residuum(fn, how: str, pts):
    return moved(fn, (pts[1], pts[3])) if how == "residuum-entry" else fn


class Broken:
    """An s-algebra whose star and residuum may be broken."""

    def __init__(self, kind: NormKind, how: str, pts):
        alg = SAlgebra.of(kind)
        self.norm = alg.norm
        self.star = broken_norm(alg.star, how, pts)
        self.res = broken_residuum(alg.res, how, pts)


# -- references ----------------------------------------------------------------


def ref_norm_axioms(fn, side, pts):
    assoc, comm, mono, boundary = (LawReport(n) for n in ("associativity", "commutativity", "monotonicity", "boundary"))
    for x, y, z in itertools.product(pts, repeat=3):
        assoc.checked += 1
        lhs, rhs = fn(fn(x, y), z), fn(x, fn(y, z))
        if lhs != rhs:
            assoc.register(Violation("associativity", (x, y, z), lhs, rhs))
    for x, y in itertools.product(pts, repeat=2):
        comm.checked += 1
        if fn(x, y) != fn(y, x):
            comm.register(Violation("commutativity", (x, y), fn(x, y), fn(y, x)))
    for x1, x2 in itertools.combinations_with_replacement(pts, 2):
        for y in pts:
            mono.checked += 1
            if fn(x1, y) > fn(x2, y):
                mono.register(Violation("monotonicity", (x1, x2, y), fn(x1, y), fn(x2, y)))
    unit = ONE if side is NormSide.TNORM else ZERO
    for x in pts:
        boundary.checked += 1
        if fn(unit, x) != x:
            boundary.register(Violation("boundary", (unit, x), fn(unit, x), x))
    return [assoc, comm, mono, boundary]


def ref_adjointness(star, res, side, pts):
    law = "DBL3-adjointness" if side is NormSide.SNORM else "BL3-adjointness"
    report = LawReport(law)
    for a, b, c in itertools.product(pts, repeat=3):
        report.checked += 1
        if side is NormSide.SNORM:
            left, right = a >= res(b, c), star(a, b) >= c
        else:
            left, right = a <= res(b, c), star(a, b) <= c
        if left != right:
            report.register(Violation(law, (a, b, c), left, right, "biconditional mismatch"))
    return report


def ref_duality(s_norm, t_norm, pts):
    report = LawReport("duality")
    for x, y in itertools.product(pts, repeat=2):
        report.checked += 1
        s, t = s_norm(x, y), t_norm(x.complement(), y.complement()).complement()
        if s != t:
            report.register(Violation("duality", (x, y), s, t))
    return report


def ref_ordering(fns, names, pts):
    report = LawReport("ordering-chain")
    for x, y in itertools.product(pts, repeat=2):
        values = [fn(x, y) for fn in fns]
        for lo, hi, n_lo, n_hi in zip(values, values[1:], names, names[1:]):
            report.checked += 1
            if lo > hi:
                report.register(Violation("ordering-chain", (x, y), lo, hi, f"{n_lo} > {n_hi}"))
    return report


def ref_distance(alg):
    return lambda a, b: alg.star(alg.res(a, b), alg.res(b, a))


def ref_numeric(alg, pts):
    return all(alg.star(x, y) <= min(1, x + y) for x, y in itertools.product(pts, repeat=2))


def ref_metric_axioms(prefix, points, dist, star, numeric):
    identity, symmetry = LawReport(f"{prefix}-identity"), LawReport(f"{prefix}-symmetry")
    for a, b in itertools.product(points, repeat=2):
        identity.checked += 1
        if (dist(a, b) == 0) != (a == b):
            identity.register(Violation(f"{prefix}-identity", (a, b), dist(a, b), ZERO))
        symmetry.checked += 1
        if dist(a, b) != dist(b, a):
            symmetry.register(Violation(f"{prefix}-symmetry", (a, b), dist(a, b), dist(b, a)))
    star_triangle = LawReport(f"{prefix}-star-triangle")
    triangle = LawReport(f"{prefix}-triangle") if numeric else None
    for a, b, c in itertools.product(points, repeat=3):
        star_triangle.checked += 1
        bound = star(dist(a, c), dist(c, b))
        if dist(a, b) > bound:
            star_triangle.register(Violation(f"{prefix}-star-triangle", (a, b, c), dist(a, b), bound))
        if triangle is not None:
            triangle.checked += 1
            total = dist(a, c) + dist(c, b)
            if dist(a, b) > total:
                triangle.register(Violation(f"{prefix}-triangle", (a, b, c), dist(a, b), total))
    return [identity, symmetry, star_triangle] + ([triangle] if numeric else [])


def ref_continuity(alg, pts):
    d, star, res = ref_distance(alg), alg.star, alg.res
    laws = ["star-lipschitz", "res-lipschitz", "z1", "z2", "z3"]
    reports = {law: LawReport(law) for law in laws}
    for a1, a2, b1, b2 in itertools.product(pts, repeat=4):
        tup = (a1, a2, b1, b2)
        big = star(d(a1, b1), d(a2, b2))
        sides = {
            "star-lipschitz": (d(star(a1, a2), star(b1, b2)), big),
            "res-lipschitz": (d(res(a1, a2), res(b1, b2)), big),
            "z1": (res(a1, b2), star(res(a1, b1), res(b1, b2))),
            "z2": (res(res(b1, b2), res(a1, a2)), star(res(a1, b1), res(b2, a2))),
            "z3": (res(res(a1, a2), res(b1, b2)), star(res(b1, a1), res(a2, b2))),
        }
        for law, (lhs, rhs) in sides.items():
            reports[law].checked += 1
            if lhs > rhs:
                reports[law].register(Violation(law, tup, lhs, rhs))
    return [reports[law] for law in laws]


def ref_context(alg, pts):
    """The grid as a law context on the values themselves."""
    return LawContext(lambda: pts, alg.star, alg.res, min, max, operator.le, ZERO, ONE, str)


# -- norms.py --------------------------------------------------------------------


@pytest.fixture
def break_norms(patch_norms):
    """Break the closed form or residuum of one family inside norms.py."""

    def install(family: NormFamily, how: str, pts):
        fn = broken_norm(norms.closed_form(family), how, pts)
        res = broken_residuum(norms.residuum_form(family), how, pts) if family.is_residuated else None
        patch_norms(family, fn, res)
        return fn, res

    return install


@pytest.mark.parametrize("how", NORM_BREAKS)
@pytest.mark.parametrize("side", tuple(NormSide), ids=lambda s: s.value)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("n", GRIDS)
def test_norm_axioms(n, kind, side, how, break_norms):
    pts = GridSpec(n).points()
    family = NormFamily(kind, side)
    fn, _ = break_norms(family, how, pts)
    got = norms.norm_axioms_check(family, GridSpec(n))
    assert dicts(got) == dicts(ref_norm_axioms(fn, side, pts))
    assert all(r.ok for r in got) == (how == "valid")


@pytest.mark.parametrize("how", BREAKS)
@pytest.mark.parametrize("side", tuple(NormSide), ids=lambda s: s.value)
@pytest.mark.parametrize("kind", RESIDUATED, ids=lambda k: k.value)
@pytest.mark.parametrize("n", GRIDS)
def test_adjointness(n, kind, side, how, break_norms):
    pts = GridSpec(n).points()
    family = NormFamily(kind, side)
    fn, res = break_norms(family, how, pts)
    got = norms.adjointness_check(family, GridSpec(n))
    assert got.to_dict() == ref_adjointness(fn, res, side, pts).to_dict()
    assert got.ok == (how == "valid")


@pytest.mark.parametrize("how", NORM_BREAKS)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("n", GRIDS)
def test_duality(n, kind, how, break_norms):
    pts = GridSpec(n).points()
    s_norm = break_norms(NormFamily.s_norm(kind), how, pts)[0]
    got = norms.duality_check(kind, GridSpec(n))
    t_norm = norms.closed_form(NormFamily.t_norm(kind))
    assert got.to_dict() == ref_duality(s_norm, t_norm, pts).to_dict()
    assert got.ok == (how == "valid")


@pytest.mark.parametrize("how", NORM_BREAKS)
@pytest.mark.parametrize("side", tuple(NormSide), ids=lambda s: s.value)
@pytest.mark.parametrize("n", GRIDS)
def test_ordering_chain(n, side, how, break_norms):
    pts = GridSpec(n).points()
    break_norms(NormFamily(NormKind.PRODUCT, side), how, pts)
    if side is NormSide.TNORM:
        chain = [NormKind.DRASTIC, NormKind.LUKASIEWICZ, NormKind.PRODUCT, NormKind.GOEDEL]
    else:
        chain = [NormKind.GOEDEL, NormKind.PRODUCT, NormKind.LUKASIEWICZ, NormKind.DRASTIC]
    fns = [norms.closed_form(NormFamily(k, side)) for k in chain]
    got = norms.ordering_chain_check(side, GridSpec(n))
    assert got.to_dict() == ref_ordering(fns, [k.value for k in chain], pts).to_dict()
    assert got.ok == (how == "valid")


# -- metric.py and the grid law context ------------------------------------------


def algebras():
    return [pytest.param(kind, how, id=f"{kind.value}-{how}") for kind in RESIDUATED for how in BREAKS]


@pytest.mark.parametrize("kind, how", algebras())
@pytest.mark.parametrize("n", GRIDS)
def test_metric_axioms(n, kind, how):
    pts = GridSpec(n).points()
    alg = Broken(kind, how, pts)
    got = metric_axioms_check(alg, GridSpec(n))
    assert dicts(got) == dicts(ref_metric_axioms("d", pts, ref_distance(alg), alg.star, ref_numeric(alg, pts)))
    assert all(r.ok for r in got) == (how == "valid")


@pytest.mark.parametrize("kind, how", algebras())
def test_pair_metric_axioms(kind, how):
    pts = GridSpec(3).points()
    alg = Broken(kind, how, pts)
    d = ref_distance(alg)
    dist = functools.cache(lambda a, b: alg.star(d(a.first, b.first), d(a.second, b.second)))
    pairs = [PairValue(x, y) for x in pts for y in pts]
    got = pair_metric_axioms_check(alg, GridSpec(3))
    assert dicts(got) == dicts(ref_metric_axioms("pair", pairs, dist, alg.star, ref_numeric(alg, pts)))
    assert all(r.ok for r in got) == (how == "valid")


@pytest.mark.parametrize("kind, how", algebras())
@pytest.mark.parametrize("n", (4, 5))
def test_continuity_inequalities(n, kind, how):
    pts = GridSpec(n).points()
    alg = Broken(kind, how, pts)
    got = continuity_inequalities_check(alg, GridSpec(n))
    assert dicts(got) == dicts(ref_continuity(alg, pts))
    assert all(r.ok for r in got) == (how == "valid")


@pytest.mark.parametrize("kind, how", algebras())
@pytest.mark.parametrize("n", (4, 6))
def test_grid_law_context(n, kind, how):
    pts = GridSpec(n).points()
    alg = Broken(kind, how, pts)
    ref = ref_context(alg, pts)
    assert dicts(dbl_axioms_check(alg, GridSpec(n))) == dicts(check_signature_axioms(ref))
    got = dbl_laws_check(alg, GridSpec(n))
    assert dicts(got) == dicts(run_catalogue(ref, D_LAWS))
    assert all(r.ok for r in got) == (how == "valid")


# -- the engine itself -------------------------------------------------------------


def test_grid_points_are_ids_in_order_and_values_intern_once():
    pts = GridSpec(6).points()
    table = ValueTable(pts)
    assert table.values == list(pts)
    assert [table.intern(p) for p in pts] == list(range(len(pts)))
    half = table.intern(Fraction(1, 7))
    assert half == len(pts) and table.intern(UnitValue(1, 7)) == half
    for i, j in itertools.product(range(len(table.values)), repeat=2):
        assert table.le(i, j) == (table.values[i] <= table.values[j])


def test_each_pair_is_computed_once():
    calls = []

    def product(x, y):
        calls.append((x, y))
        return UnitValue(x * y)

    table = ValueTable(GridSpec(4).points())
    star = lazy_table(table.operation(product))
    grid = square(lambda i, j: star[i][j], 5)
    for _ in range(2):
        for row in grid:
            for i in row:
                star[i][i]
    assert len(calls) == len(set(calls)) == 25 + len({i for row in grid for i in row} - set(range(5)))
