"""The row kinds of reslat.tables against the brute-force definitions they replace.

On a table of at most 256 order ranks a row is ``bytes``: a gather is one
``bytes.translate`` and ``all_le`` one big-integer SWAR test.  Larger tables
keep lists of ranks.  Closed-grid associativity and the continuity contracts
run on these rows, so each must give the report that per-tuple ``Fraction``
evaluation gives, on valid and on seeded broken operations, and the byte
path must be the one that runs where it applies.
"""

import hashlib
import itertools
import json
import random
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reslat.metric as metric
import reslat.norms as norms
from reslat.metric import SAlgebra, continuity_inequalities_check
from reslat.kernels import ValueTable
from reslat.norms import NormFamily, NormKind, NormSide, associativity_rows
from reslat.tables import ByteRows, RankRows, row_kind
from reslat.unitval import GridSpec, UnitValue

from test_grid_tables import dicts, ref_continuity, ref_distance, ref_metric_axioms, ref_norm_axioms, ref_numeric

CLOSED = (NormKind.LUKASIEWICZ, NormKind.GOEDEL)


# -- all_le on bytes ------------------------------------------------------------------

lanes = st.one_of(st.sampled_from((0, 1, 126, 127, 128, 129, 254, 255)), st.integers(0, 255))


@settings(max_examples=200, deadline=None)
@given(st.lists(lanes, min_size=1, max_size=600), st.integers(0, 2**32), st.integers(0, 3))
def test_byte_all_le_is_le_on_every_lane(xs, seed, misses):
    # ys >= xs in every lane but ``misses`` drawn ones, which take any lane.
    rng = random.Random(seed)
    ys = [rng.choice((x, rng.randint(x, 255), 255)) for x in xs]
    for _ in range(misses):
        ys[rng.randrange(len(ys))] = rng.choice((0, 127, 128, 255, rng.randrange(256)))
    xs, ys = bytes(xs), bytes(ys)
    assert ByteRows.all_le(xs, ys) == all(map(le, xs, ys)) == RankRows.all_le(list(xs), list(ys))
    assert ByteRows.all_le(xs, xs) and ByteRows.all_le(ys, ys)
    assert ByteRows.all_le(ys, xs) == all(map(le, ys, xs))


@pytest.mark.parametrize("x, y", list(itertools.product((0, 1, 127, 128, 129, 255), repeat=2)))
def test_byte_all_le_on_one_lane_among_equal_ones(x, y):
    for pad in (b"", b"\x00" * 5, b"\x80" * 5, b"\xff" * 5):
        assert ByteRows.all_le(pad + bytes([x]) + pad, pad + bytes([y]) + pad) == (x <= y)


def test_both_kinds_gather_and_join_alike():
    rng = random.Random(7)
    ranks = [rng.randrange(256) for _ in range(200)]
    positions = [rng.randrange(200) for _ in range(300)]
    for kind in (ByteRows, RankRows):
        gathered = kind.index(positions)(kind.table(ranks))
        assert list(gathered) == [ranks[p] for p in positions]
        assert list(kind.concat([gathered, gathered])) == [ranks[p] for p in positions] * 2
    assert row_kind(256) is ByteRows and row_kind(257) is RankRows


# -- closed-grid associativity -------------------------------------------------------


def seeded_break(fn, pts, seed):
    """``fn`` with one seeded entry replaced by another grid point, so the grid
    stays closed; the broken function carries its own integer kernel."""
    rng = random.Random(seed)
    at = (rng.choice(pts), rng.choice(pts))
    value = rng.choice([p for p in pts if p != fn(*at)])

    def broken(x, y):
        return value if (x, y) == at else fn(x, y)

    def kernel(a, b, c, d):
        if (UnitValue(a, b), UnitValue(c, d)) == at:
            return value.numerator, value.denominator
        v = fn(UnitValue(a, b), UnitValue(c, d))
        return v.numerator, v.denominator

    broken.kernel, broken.at = kernel, at
    return broken


@pytest.fixture
def spy_bytes(monkeypatch):
    """Counts of the byte kind's row tables and all_le tests as the checkers run."""
    calls = {"table": 0, "all_le": 0}

    def counted(name):
        original = getattr(ByteRows, name)

        def spy(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(ByteRows, name, staticmethod(spy))

    counted("table")
    counted("all_le")
    return calls


ASSOC_KINDS = (*CLOSED, NormKind.DRASTIC)


@pytest.mark.parametrize("side", tuple(NormSide), ids=lambda s: s.value)
@pytest.mark.parametrize("kind", ASSOC_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_closed_grid_associativity_is_the_definition(n, kind, side, patch_norms, spy_bytes):
    pts = GridSpec(n).points()
    family = NormFamily(kind, side)
    valid = norms.closed_form(family)
    for seed in (None, 1, 2, 3):
        fn = valid if seed is None else seeded_break(valid, pts, seed)
        patch_norms(family, fn)
        spy_bytes["table"] = 0
        got = norms.norm_axioms_check(family, GridSpec(n))
        assert dicts(got) == dicts(ref_norm_axioms(fn, side, pts))
        # One row table per x until the first x whose rows differ: the byte path ran.
        assert 1 <= spy_bytes["table"] <= len(pts)
        if seed is None:
            assert all(r.ok for r in got) and spy_bytes["table"] == len(pts)


def test_a_seeded_break_fails_associativity_somewhere(patch_norms):
    # The seeded breaks above are not vacuous: most of them fail associativity.
    valid_forms = {kind: norms.closed_form(NormFamily.t_norm(kind)) for kind in ASSOC_KINDS}
    failing = 0
    pts = GridSpec(5).points()
    for kind, seed in itertools.product(ASSOC_KINDS, range(1, 9)):
        family = NormFamily.t_norm(kind)
        patch_norms(family, seeded_break(valid_forms[kind], pts, seed))
        failing += not norms.norm_axioms_check(family, GridSpec(5))[0].ok
    assert failing >= 12


@pytest.mark.parametrize("broken", (False, True), ids=("valid", "broken"))
def test_associativity_past_256_points(broken, spy_bytes):
    """A closed grid of 257 points takes the kernel-row path; its witness rows
    are the definition's."""
    g = GridSpec(256)
    pts = g.points()
    fn = norms.closed_form(NormFamily.t_norm(NormKind.GOEDEL))
    if broken:
        fn = seeded_break(fn, pts, 5)
    table = ValueTable(pts)
    sq = table.square(fn)
    assert max(map(max, sq)) < len(pts) == 257
    rows = associativity_rows(table, fn, sq)
    assert spy_bytes["table"] == 0
    if not broken:
        assert rows is None
        return
    assert rows is not None
    rng = random.Random(11)
    x, y = pts.index(fn.at[0]), pts.index(fn.at[1])
    pairs = [(x, y), (x, 0), (0, x), (y, x)] + [(rng.randrange(257), rng.randrange(257)) for _ in range(3)]
    for x, y in pairs:
        lhs, rhs = rows(x, y)
        assert [table.values[i] for i in lhs] == [fn(fn(pts[x], pts[y]), z) for z in pts]
        assert [table.values[i] for i in rhs] == [fn(pts[x], fn(pts[y], z)) for z in pts]


# -- the continuity contracts --------------------------------------------------------


class BrokenAlgebra:
    """An s-algebra whose star or residuum has one seeded entry moved within the grid."""

    def __init__(self, kind, pts, star_seed=None, res_seed=None):
        alg = SAlgebra.of(kind)
        self.norm = alg.norm
        self.star = alg.star if star_seed is None else seeded_break(alg.star, pts, star_seed)
        self.res = alg.res if res_seed is None else seeded_break(alg.res, pts, res_seed)


@pytest.fixture
def spy_kind(monkeypatch):
    """The row kinds the continuity check picks."""
    picked = []

    def spy(ranks):
        picked.append(row_kind(ranks))
        return picked[-1]

    monkeypatch.setattr(metric, "row_kind", spy)
    return picked


BREAKS = [(None, None), (1, None), (2, None), (None, 1), (None, 2)]


@pytest.mark.parametrize("star_seed, res_seed", BREAKS, ids=["valid", "star-1", "star-2", "res-1", "res-2"])
@pytest.mark.parametrize("kind", CLOSED, ids=lambda k: k.value)
@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_byte_row_continuity_is_the_definition(n, kind, star_seed, res_seed, spy_bytes, spy_kind):
    pts = GridSpec(n).points()
    alg = BrokenAlgebra(kind, pts, star_seed, res_seed)
    got = continuity_inequalities_check(alg, GridSpec(n))
    assert dicts(got) == dicts(ref_continuity(alg, pts))
    assert spy_kind == [ByteRows]
    # Four row tests per (a1, a2) and one z1 test per a1, all on bytes.
    assert spy_bytes["all_le"] == 4 * len(pts) ** 2 + len(pts)
    if star_seed is None and res_seed is None:
        assert all(r.ok for r in got)


def test_seeded_continuity_breaks_fail_every_contract_somewhere():
    failed = set()
    for kind, n, (star_seed, res_seed) in itertools.product(CLOSED, (3, 4, 5, 6), BREAKS[1:]):
        alg = BrokenAlgebra(kind, GridSpec(n).points(), star_seed, res_seed)
        failed |= {r.law_id for r in continuity_inequalities_check(alg, GridSpec(n)) if not r.ok}
    assert failed == {"star-lipschitz", "res-lipschitz", "z1", "z2", "z3"}


@pytest.mark.parametrize(
    "n, kind",
    [(6, ByteRows), (8, ByteRows), (10, RankRows)],
    ids=("grid6-bytes", "grid8-bytes", "grid10-lists"),
)
@pytest.mark.parametrize("star_seed, res_seed", [(None, None), (3, None), (None, 3)], ids=["valid", "star", "res"])
def test_product_continuity_on_ranks(n, kind, star_seed, res_seed, spy_kind):
    """Off the grid every square is translated to order ranks: bytes while the
    table holds at most 256 values, lists past that."""
    pts = GridSpec(n).points()
    alg = BrokenAlgebra(NormKind.PRODUCT, pts, star_seed, res_seed)
    got = continuity_inequalities_check(alg, GridSpec(n))
    assert dicts(got) == dicts(ref_continuity(alg, pts))
    assert spy_kind == [kind]
    assert all(r.ok for r in got) == (star_seed is None and res_seed is None)


# -- the star-triangle on closed grids ------------------------------------------------


class NormsAlgebra:
    """The s-algebra of ``family`` as reslat.norms serves it, with any patch
    that patch_norms installed there."""

    def __init__(self, family):
        self.norm, self.star, self.res = family, norms.closed_form(family), norms.residuum_form(family)


@pytest.mark.parametrize("seed", (None, 1, 2, 3, 4), ids=lambda s: "valid" if s is None else f"star-{s}")
@pytest.mark.parametrize("kind", CLOSED, ids=lambda k: k.value)
@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_byte_row_star_triangle_is_the_definition(n, kind, seed, patch_norms, spy_bytes):
    pts = GridSpec(n).points()
    family = NormFamily.s_norm(kind)
    if seed is not None:
        patch_norms(family, seeded_break(norms.closed_form(family), pts, seed))
    alg = NormsAlgebra(family)
    got = metric.metric_axioms_check(alg, GridSpec(n))
    assert dicts(got) == dicts(ref_metric_axioms("d", pts, ref_distance(alg), alg.star, ref_numeric(alg, pts)))
    # One byte test per a, over every (b, c): the byte path ran.
    assert spy_bytes["all_le"] == len(pts)
    if seed is None:
        assert all(r.ok for r in got)


def test_seeded_star_breaks_fail_the_star_triangle_somewhere(patch_norms):
    # The seeded breaks above are not vacuous.
    failing = 0
    for kind, n, seed in itertools.product(CLOSED, (3, 4, 5, 6), (1, 2, 3, 4)):
        family = NormFamily.s_norm(kind)
        patch_norms(family, seeded_break(SAlgebra.of(kind).star, GridSpec(n).points(), seed))
        failing += not metric.metric_axioms_check(NormsAlgebra(family), GridSpec(n))[2].ok
    assert failing >= 8


@pytest.mark.parametrize("kind", CLOSED, ids=lambda k: k.value)
def test_a_star_that_leaves_the_grid_takes_the_kernel_rows(kind, spy_bytes):
    pts = GridSpec(4).points()
    alg = SAlgebra.of(kind)
    star = lambda x, y: UnitValue(alg.star(x, y) / 3) if (x, y) == (pts[1], pts[1]) else alg.star(x, y)
    table = ValueTable(pts)
    got = metric._metric_laws("d", pts, metric._distance_square(table, alg), table, star, True)
    assert dicts(got) == dicts(ref_metric_axioms("d", pts, ref_distance(alg), star, True))
    assert spy_bytes["all_le"] == 0


@pytest.mark.parametrize("seed", (None, 1, 2, 3, 4), ids=lambda s: "valid" if s is None else f"star-{s}")
@pytest.mark.parametrize("kind", CLOSED, ids=lambda k: k.value)
@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_rank_row_star_triangle_is_the_definition(n, kind, seed, patch_norms, spy_bytes, monkeypatch):
    """The closed-grid star-triangle on lists of ranks, the row kind of grids
    past 256 points, against the definition."""
    picked = []
    monkeypatch.setattr(metric, "row_kind", lambda ranks: picked.append(ranks) or RankRows)
    pts = GridSpec(n).points()
    family = NormFamily.s_norm(kind)
    if seed is not None:
        patch_norms(family, seeded_break(norms.closed_form(family), pts, seed))
    alg = NormsAlgebra(family)
    got = metric.metric_axioms_check(alg, GridSpec(n))
    assert dicts(got) == dicts(ref_metric_axioms("d", pts, ref_distance(alg), alg.star, ref_numeric(alg, pts)))
    assert picked == [len(pts)] and spy_bytes["all_le"] == 0
    if seed is None:
        assert all(r.ok for r in got)


# Taken from the pair check before its closed-grid rows became the row kinds
# of reslat.tables: 289 pairs, so a row has more entries than a byte indexes.
PAIR_DIGEST = "c29cf7173a4a8f18f18b347798dc663950c49354ffbd4cccdc0150d01d2ccffe"


@pytest.mark.parametrize("kind", CLOSED, ids=lambda k: k.value)
def test_pair_metric_axioms_at_grid_16_are_pinned(kind, spy_bytes):
    got = metric.pair_metric_axioms_check(SAlgebra.of(kind), GridSpec(16))
    assert hashlib.sha256(json.dumps(dicts(got)).encode()).hexdigest() == PAIR_DIGEST
    # One byte test per pair: the closed-grid rows ran.
    assert spy_bytes["all_le"] == 17**2
