"""Induced distances on [0,1] and [0,1]^2, with exhaustive grid checkers.

A continuous s-norm ``*`` with residuum ``->`` induces the distance
``d(a, b) = (a -> b) * (b -> a)``, which is symmetric, vanishes exactly on
the diagonal, and satisfies the star-triangle inequality
``d(a, b) <= d(a, c) * d(c, b)``.  When the s-norm is pointwise weaker than
the Lukasiewicz one this is an ordinary metric.  The pair distance
``D((a1, a2), (b1, b2)) = d(a1, b1) * d(a2, b2)`` plays the taxicab role on
the square, and both the s-norm and its residuum move outputs by at most the
pair distance of their inputs (the Lipschitz-style continuity contracts).

The grid checkers run on reslat.kernels and reslat.tables.  The distance
square is the star of the residuum's square with its transpose; the
star-triangle compares rows of a row kind of reslat.tables on a closed grid
and rows of the star's kernel with ``d(a, b)`` elsewhere (product),
interning nothing, and the continuity contracts pick each row from a square
of the star, the residuum or the distance on the values the grid takes.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from itertools import repeat
from math import lcm

from .errors import InvalidRadius
from .kernels import NormFamily, NormKind, NormSide, ValueTable, closed_form, kernel_of, kernel_row, residuum_form
from .laws import D_LAWS, SIGNATURE_LAWS, LawContext, LazyTable, check_signature_axioms, run_catalogue
from .reports import LawReport, Violation
from .tables import positions, row_kind
from .unitval import ONE, ZERO, GridSpec, UnitValue

# The largest grid denominator ``reslat metric`` checks the signature axioms on.
MAX_AXIOM_GRID = 16


class SAlgebra:
    """[0,1] with max/min, a continuous s-norm, and its residuum."""

    __slots__ = ("norm",)

    def __init__(self, norm: NormFamily):
        if norm.side is not NormSide.SNORM:
            raise ValueError("SAlgebra requires the s-norm side of a family")
        if not norm.is_residuated:
            raise ValueError("SAlgebra requires a continuous (residuated) s-norm")
        self.norm = norm

    @classmethod
    def of(cls, kind: NormKind | str) -> "SAlgebra":
        if isinstance(kind, str):
            return cls(NormFamily.from_name(kind, NormSide.SNORM))
        return cls(NormFamily(kind, NormSide.SNORM))

    @property
    def star(self):
        """The s-norm as its plain closed form, ``star(x, y)``."""
        return closed_form(self.norm)

    @property
    def res(self):
        """The residuum as its plain closed form, ``res(x, y)``."""
        return residuum_form(self.norm)


class PairValue:
    __slots__ = ("first", "second")

    def __init__(self, first: UnitValue, second: UnitValue):
        self.first, self.second = first, second

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


def d_star(alg: SAlgebra, a: UnitValue, b: UnitValue) -> UnitValue:
    """The induced distance (a -> b) * (b -> a), from the definition."""
    return alg.star(alg.res(a, b), alg.res(b, a))


# The per-family closed form of the induced distance, as an integer kernel on
# x = a/b and y = c/d (see reslat.kernels): |x - y| (Lukasiewicz); 0 if x == y,
# else max(x, y) (Goedel); 0 if x == y, else |x - y| / (1 - min(x, y)) (product).
_DISTANCE_KERNELS = {
    NormKind.LUKASIEWICZ: lambda a, b, c, d: (abs(a * d - c * b), b * d),
    NormKind.GOEDEL: lambda a, b, c, d: (0, 1) if a * d == c * b else (a, b) if a * d > c * b else (c, d),
    NormKind.PRODUCT: lambda a, b, c, d: (
        (0, 1) if a * d == c * b else (c * b - a * d, d * (b - a)) if a * d < c * b else (a * d - c * b, b * (d - c))
    ),
}


def d_star_closed_form(alg: SAlgebra, a: UnitValue, b: UnitValue) -> UnitValue:
    """Per-family closed form of the induced distance."""
    return UnitValue(*_DISTANCE_KERNELS[alg.norm.kind](a.numerator, a.denominator, b.numerator, b.denominator))


def d_bigstar(alg: SAlgebra, a: PairValue, b: PairValue) -> UnitValue:
    """Pair distance d(a1, b1) * d(a2, b2)."""
    return alg.star(d_star(alg, a.first, b.first), d_star(alg, a.second, b.second))


def weaker_than_lukasiewicz(alg: SAlgebra, g: GridSpec) -> bool:
    """True if the s-norm is pointwise <= min(1, x+y) on the grid."""
    return _weaker_than_lukasiewicz(ValueTable(g.points()), alg)


def _weaker_than_lukasiewicz(table: ValueTable, alg: SAlgebra) -> bool:
    # On the table's points, with the squares the table shares with the caller's checks.
    luk = closed_form(NormFamily.s_norm(NormKind.LUKASIEWICZ))
    return all(map(table.all_le, table.square(alg.star), table.square(luk)))


def d_star_closed_form_check(alg: SAlgebra, g: GridSpec) -> LawReport:
    """Definitional distance, from the distance square, against the closed
    form on all grid pairs: row a of the square against the closed form's
    kernel on ``(a, b)`` for every b."""
    pts, table = g.points(), ValueTable(g.points())
    m, kernel = len(pts), _DISTANCE_KERNELS[alg.norm.kind]
    report = LawReport("d-closed-form", m**2)
    for a, row in enumerate(_distance_square(table, alg)):
        closed = table.apply(kernel, [a] * m, range(m))
        if row != closed:
            report.register_row(row, closed, lambda b: (pts[a], pts[b]), table.values.__getitem__)
    return report


def _metric_laws(prefix: str, points, dist, table: ValueTable, star, numeric: bool) -> list[LawReport]:
    """Identity, symmetry, star-triangle and (with ``numeric``) the numeric
    triangle of the distance table ``dist`` (ids) on ``points`` (witness
    labels), with ``star`` the s-norm on values; point i is row i, and id 0
    is the distance 0.  Each law compares whole rows over its last
    variable; only a row that fails is swept again, to register its
    witnesses in tuple order.

    On a closed grid (every distance, and the star of any two points, is a
    point) the star-triangle of each a is one ``all_le`` over every (c, b),
    in the row kind of reslat.tables for the grid: the bounds over b are row
    c of the distance table gathered from the star's row ``d(a, c)``.  A
    row that holds there also holds the numeric triangle, as ``numeric``
    means ``x * y <= min(1, x + y)`` on the grid's points (both callers
    decide it on ``table`` before they build ``dist``, so that the closed path
    reads the star square that decision built).  Every other row ``d(a,
    c) * d(c, b)`` over c comes from kernel_row on the kernel of ``star``
    and is compared with ``d(a, b)`` by cross-multiplication, interning
    nothing; a failing one is swept again on :meth:`ValueTable.map`."""
    values, le = table.values, table.le
    m, n = len(points), table.n_points
    rng = range(m)
    cols = [list(col) for col in zip(*dist)]
    identity, symmetry = LawReport(f"{prefix}-identity", m**2), LawReport(f"{prefix}-symmetry", m**2)
    for a in rng:
        row, col = dist[a], cols[a]
        if row[a] == 0 and row.count(0) == 1 and row == col:
            continue
        for b in rng:
            if (row[b] == 0) != (a == b):
                identity.register(Violation(identity.law_id, (points[a], points[b]), values[row[b]], ZERO))
            if row[b] != col[b]:
                symmetry.register(Violation(symmetry.law_id, (points[a], points[b]), values[row[b]], values[col[b]]))

    star_triangle = LawReport(f"{prefix}-star-triangle", m**3)
    triangle = LawReport(f"{prefix}-triangle", m**3) if numeric else None
    holds = [False] * m
    if max(map(max, dist)) < n and max(map(max, star_sq := table.square(star))) < n:
        # On the grid the ids are their own ranks; row a of the table, m times, is the left side.
        kind = row_kind(n)
        star_rows, gathers = [kind.table(row) for row in star_sq], list(map(kind.index, dist))
        lhs = lambda a: kind.concat([gathers[a](kind.table(range(n)))] * m)
        rhs = lambda a: kind.concat([at(star_rows[x]) for at, x in zip(gathers, dist[a])])
        holds = [kind.all_le(lhs(a), rhs(a)) for a in rng]
    # The numeric triangle in integers: every distance over one common denominator.
    common = lcm(*(values[i].denominator for row in dist for i in row))
    scaled = [[values[i].numerator * (common // values[i].denominator) for i in row] for row in dist]
    scaled_cols = [list(col) for col in zip(*scaled)]
    kernel, num, den = kernel_of(star), table._num, table._den
    fractions = lambda rows: [([num[i] for i in row], [den[i] for i in row]) for row in rows]
    row_fractions, col_fractions = fractions(dist), fractions(cols)
    for a, b in itertools.product([a for a in rng if not holds[a]], rng):
        d_ab = dist[a][b]
        ns, ds = kernel_row(kernel, *row_fractions[a], *col_fractions[b])
        star_holds = all(map(operator.le, map(operator.mul, repeat(num[d_ab]), ds), map(operator.mul, ns, repeat(den[d_ab]))))
        if star_holds and (triangle is None or scaled[a][b] <= min(map(operator.add, scaled[a], scaled_cols[b]))):
            continue
        bounds = table.map(star, dist[a], cols[b])
        for c in rng:
            if not le(d_ab, bounds[c]):
                star_triangle.register(
                    Violation(star_triangle.law_id, (points[a], points[b], points[c]), values[d_ab], values[bounds[c]])
                )
            if triangle is not None and scaled[a][b] > scaled[a][c] + scaled[c][b]:
                total = Fraction(values[dist[a][c]]) + Fraction(values[dist[c][b]])
                triangle.register(Violation(triangle.law_id, (points[a], points[b], points[c]), values[d_ab], total))
    return [identity, symmetry, star_triangle] + ([triangle] if numeric else [])


def _distance_square(table: ValueTable, alg: SAlgebra, ids=None) -> list[list[int]]:
    """d(a, b) = (a -> b) * (b -> a) for every pair of ``ids`` (by default
    the table's points), as rows of ids: row a is the star of row a and
    column a of the residuum's square."""
    res = table.square(alg.res, ids)
    return [table.map(alg.star, row, col) for row, col in zip(res, zip(*res))]


def metric_axioms_check(alg: SAlgebra, g: GridSpec) -> list[LawReport]:
    """Identity of indiscernibles, symmetry, the star-triangle inequality,
    and (when the norm is weaker than Lukasiewicz) the numeric triangle
    inequality, all exhaustively on the grid."""
    table = ValueTable(g.points())
    numeric = _weaker_than_lukasiewicz(table, alg)
    return _metric_laws("d", g.points(), _distance_square(table, alg), table, alg.star, numeric)


def pair_metric_axioms_check(alg: SAlgebra, g: GridSpec) -> list[LawReport]:
    """The three pair-distance clauses (plus the numeric triangle when it
    applies) over all pairs of grid points; cubic in the squared grid."""
    pts = g.points()
    rng = range(len(pts))
    table = ValueTable(pts)
    numeric = _weaker_than_lukasiewicz(table, alg)
    dist = _distance_square(table, alg)
    pairs = [(x, y) for x in rng for y in rng]
    repeated, tiled = [[x for x in row for _ in rng] for row in dist], [row * len(pts) for row in dist]
    pair_dist = [table.map(alg.star, repeated[a1], tiled[a2]) for a1, a2 in pairs]
    labels = [PairValue(pts[x], pts[y]) for x, y in pairs]
    return _metric_laws("pair", labels, pair_dist, table, alg.star, numeric)


def continuity_inequalities_check(alg: SAlgebra, g: GridSpec) -> list[LawReport]:
    """The Lipschitz-style continuity contracts for the s-norm and its
    residuum, plus the three intermediate inequalities, over all grid
    4-tuples (a1, a2, b1, b2):

      star-lipschitz  d(a1*a2, b1*b2) <= D(a, b)
      res-lipschitz   d(a1->a2, b1->b2) <= D(a, b)
      z1              (a1->b1)*(b1->b2) >= a1->b2
      z2              (b1->b2)->(a1->a2) <= (a1->b1)*(b2->a2)
      z3              (a1->a2)->(b1->b2) <= (b1->a1)*(a2->b2)

    where D(a, b) = d(a1, b1) * d(a2, b2).  Each (a1, a2) compares one row
    per contract over the flattened pairs (b1, b2), and z1, which does not
    read a2, one row per a1; only a row that fails is swept again, to
    register its witnesses in tuple order.  Every row is gathered from a
    square: of the star, the residuum or the distance on the grid, or on the
    star values, residua or distances the grid takes.  The rows hold order
    ranks, in the row kind of reslat.tables that the table's size allows.
    """
    pts = g.points()
    n = len(pts)
    rng = range(n)
    table = ValueTable(pts)
    values = table.values
    star_g, res_g, dist_g = table.square(alg.star), table.square(alg.res), _distance_square(table, alg)
    res_t = [list(col) for col in zip(*res_g)]
    pair_pts = [(pts[b1], pts[b2]) for b1, b2 in itertools.product(rng, repeat=2)]

    # The values each square of the grid takes, and the position of each among them.
    (star_ids, star_pos), (res_ids, res_pos), (dist_ids, dist_pos) = map(positions, (star_g, res_g, dist_g))
    dist_of_stars, dist_of_res = _distance_square(table, alg, star_ids), _distance_square(table, alg, res_ids)
    res_of_res, star_of_res = table.square(alg.res, res_ids), table.square(alg.star, res_ids)
    star_of_dist = table.square(alg.star, dist_ids)
    # Every square in order ranks, once the last one is built: on a closed
    # grid the ids are their own ranks.
    rank, kind = table.ranks(), row_kind(len(values))
    order = range(len(values)) if rank is None else sorted(range(len(values)), key=rank.__getitem__)
    tabulate = lambda rows: [kind.table(row if rank is None else map(rank.__getitem__, row)) for row in rows]
    dist_of_stars, dist_of_res, res_of_res, res_of_res_t, star_of_res, star_of_dist, res_rows = map(
        tabulate, (dist_of_stars, dist_of_res, res_of_res, zip(*res_of_res), star_of_res, star_of_dist, res_g)
    )
    index = lambda pos, ids: kind.index(map(pos.__getitem__, ids))
    at_star_b, at_res_b = index(star_pos, itertools.chain(*star_g)), index(res_pos, itertools.chain(*res_g))
    at_dist_row = [index(dist_pos, row) for row in dist_g]
    at_res_row, at_res_col = [index(res_pos, row) for row in res_g], [index(res_pos, row) for row in res_t]
    at_b2 = kind.index(list(rng) * n)
    concat, all_le, show = kind.concat, kind.all_le, lambda r: values[order[r]]
    reports = [LawReport(law, n**4) for law in ("star-lipschitz", "res-lipschitz", "z1", "z2", "z3")]
    star_lipschitz, res_lipschitz, z1, z2, z3 = reports
    args = lambda k: (pts[a1], pts[a2], *pair_pts[k])
    for a1 in rng:
        # star(x, .) for x = d(a1, b1), a1 -> b1 and b1 -> a1, one row per b1.
        big_rows = [star_of_dist[dist_pos[x]] for x in dist_g[a1]]
        z2_rows = [star_of_res[res_pos[x]] for x in res_g[a1]]
        z3_rows = [star_of_res[res_pos[x]] for x in res_t[a1]]
        z1_rows = at_b2(res_rows[a1]), concat([at(row) for at, row in zip(at_res_row, z2_rows)])
        z1_holds = all_le(*z1_rows)
        for a2 in rng:
            s_a, r_a = star_pos[star_g[a1][a2]], res_pos[res_g[a1][a2]]
            big = concat(map(at_dist_row[a2], big_rows))
            rows = (
                (star_lipschitz, at_star_b(dist_of_stars[s_a]), big),
                (res_lipschitz, at_res_b(dist_of_res[r_a]), big),
                (z2, at_res_b(res_of_res_t[r_a]), concat(map(at_res_col[a2], z2_rows))),
                (z3, at_res_b(res_of_res[r_a]), concat(map(at_res_row[a2], z3_rows))),
            )
            for report, lhs, rhs in rows:
                if not all_le(lhs, rhs):
                    report.register_row(lhs, rhs, args, show, operator.le)
            if not z1_holds:
                z1.register_row(*z1_rows, args, show, operator.le)
    return reports


def tuples_checked(grid: int, grid4: int, laws_grid: int, ids=()) -> int:
    """The sum of the ``checked`` counts of the reports ``reslat metric``
    makes: the closed form and the metric axioms at ``grid`` (with the
    numeric triangle: every s-norm here is below Lukasiewicz's), the
    signature axioms at most at MAX_AXIOM_GRID, the continuity contracts at
    ``grid4`` and the D-laws ``ids`` at ``laws_grid``."""
    m, s, n, k = grid + 1, min(grid, MAX_AXIOM_GRID) + 1, grid4 + 1, laws_grid + 1
    signature = sum(s**arity for _, arity, _, _ in SIGNATURE_LAWS)
    return 3 * m**2 + 2 * m**3 + signature + 5 * n**4 + sum(k**arity for law_id, arity, _, _ in D_LAWS if law_id in ids)


def _grid_context(alg: SAlgebra, g: GridSpec) -> LawContext:
    """The grid as a law context on interned ids: 0 is ZERO, len(g) - 1 is
    ONE.  The context keeps the operations as lazily filled tables; the order
    keeps no entry, as off the grid its pairs fill many sparse rows."""
    table = ValueTable(g.points())
    values, le, num, den = table.values, table.le, table._num, table._den

    class OrderRow:  # row x of the order: row[y] is values[x] <= values[y]
        __slots__ = ("n", "d")

        def __init__(self, x: int):
            self.n, self.d = num[x], den[x]

        def __getitem__(self, y: int) -> bool:
            return self.n * den[y] <= num[y] * self.d

    return LawContext(
        lambda: range(len(g)),
        table.operation(alg.star),
        table.operation(alg.res),
        lambda a, b: a if le(a, b) else b,
        lambda a, b: b if le(a, b) else a,
        LazyTable(OrderRow),
        0,
        len(g) - 1,
        lambda v: str(v) if isinstance(v, bool) else str(values[v]),
    )


def dbl_laws_check(alg: SAlgebra, g: GridSpec, ids=None) -> list[LawReport]:
    """D1..D15 exhaustively over grid tuples (arity up to 4)."""
    return run_catalogue(_grid_context(alg, g), D_LAWS, ids)


def dbl_axioms_check(alg: SAlgebra, g: GridSpec) -> list[LawReport]:
    """The five signature axioms of the dual structure, exhaustively on the grid."""
    return check_signature_axioms(_grid_context(alg, g))


class Interval:
    __slots__ = ("lo", "lo_closed", "hi", "hi_closed")

    def __init__(self, lo: UnitValue, lo_closed: bool, hi: UnitValue, hi_closed: bool):
        self.lo, self.lo_closed, self.hi, self.hi_closed = lo, lo_closed, hi, hi_closed

    def contains(self, v: UnitValue) -> bool:
        if v < self.lo or (v == self.lo and not self.lo_closed):
            return False
        if v > self.hi or (v == self.hi and not self.hi_closed):
            return False
        return True

    def describe(self) -> str:
        if self.lo == self.hi and self.lo_closed and self.hi_closed:
            return f"{{{self.lo}}}"
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


class IntervalBall:
    """Open ball {b : d(center, b) < radius} with a closed-form description.

    The description is one interval ``piece`` (a point is a closed
    interval with equal ends); membership can always be decided from the raw
    metric predicate, and the two must agree at every point of [0, 1]
    (decided by :meth:`agreement_check`).
    """

    __slots__ = ("algebra", "center", "radius", "piece")

    def __init__(self, algebra: SAlgebra, center: UnitValue, radius: UnitValue, piece: Interval):
        self.algebra, self.center, self.radius, self.piece = algebra, center, radius, piece

    def contains(self, b: UnitValue) -> bool:
        return d_star(self.algebra, self.center, b) < self.radius

    def closed_form_contains(self, b: UnitValue) -> bool:
        return self.piece.contains(b)

    def describe(self) -> str:
        return self.piece.describe()

    def agreement_check(self) -> LawReport:
        """The closed form against the predicate on all of [0, 1], exactly.

        With centre c and radius r, d(c, .) falls on [0, c] and rises on
        [c, 1], and by adjunction d(c, b) <= r iff R(r, c) <= b <= S(c, r).
        For the three families d(c, .) takes the value r at most once on
        each side of c, or (Goedel) on all of [0, c).  So the predicate is
        constant between neighbouring cut points (0, c, 1, R(r, c), S(c, r))
        and the closed form between its two endpoints: checking every cut
        point, both endpoints, and the midpoint between each
        neighbouring pair of them decides agreement everywhere.
        """
        alg, c, r = self.algebra, self.center, self.radius
        cuts = sorted({ZERO, ONE, c, alg.res(r, c), alg.star(c, r), self.piece.lo, self.piece.hi})
        probes = sorted(cuts + [UnitValue((lo + hi) / 2) for lo, hi in zip(cuts, cuts[1:])])
        report = LawReport("ball-closed-form")
        for b in probes:
            report.checked += 1
            raw, closed = self.contains(b), self.closed_form_contains(b)
            if raw != closed:
                report.register(Violation("ball-closed-form", (c, r, b), raw, closed))
        return report


def _clamped_open_interval(lo: Fraction, hi: Fraction) -> Interval:
    # (lo, hi) intersected with [0,1]; clipping an endpoint makes it closed.
    lo_closed = lo < 0
    hi_closed = hi > 1
    return Interval(
        UnitValue(lo if not lo_closed else 0),
        lo_closed,
        UnitValue(hi if not hi_closed else 1),
        hi_closed,
    )


def interval_ball(alg: SAlgebra, center: UnitValue, radius: UnitValue) -> IntervalBall:
    """The ball around ``center`` of radius ``radius`` in (0, 1]."""
    if radius == ZERO:
        raise InvalidRadius("ball radius must lie in (0, 1]")
    kind = alg.norm.kind
    if kind is NormKind.LUKASIEWICZ:
        piece = _clamped_open_interval(center - radius, center + radius)
    elif kind is NormKind.GOEDEL:
        if radius <= center:
            piece = Interval(center, True, center, True)
        else:
            piece = Interval(ZERO, True, radius, False)
    else:
        # Product: invert |a-b| / (1 - min(a, b)) < r around a.
        if center == ONE:
            piece = Interval(ONE, True, ONE, True)
        elif radius == ONE:
            piece = Interval(ZERO, True, ONE, False)
        else:
            lo = (center - radius) / (1 - radius)
            hi = center + radius * (1 - center)
            piece = _clamped_open_interval(lo, hi)
    return IntervalBall(alg, center, radius, piece)
