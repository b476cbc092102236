"""Induced distances on [0,1] and [0,1]^2, with exhaustive grid checkers.

A continuous s-norm ``*`` with residuum ``->`` induces the distance
``d(a, b) = (a -> b) * (b -> a)``, which is symmetric, vanishes exactly on
the diagonal, and satisfies the star-triangle inequality
``d(a, b) <= d(a, c) * d(c, b)``.  When the s-norm is pointwise weaker than
the Lukasiewicz one this is an ordinary metric.  The pair distance
``D((a1, a2), (b1, b2)) = d(a1, b1) * d(a2, b2)`` plays the taxicab role on
the square, and both the s-norm and its residuum move outputs by at most the
pair distance of their inputs (the Lipschitz-style continuity contracts).
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import lcm

from .errors import InvalidRadius
from .laws import D_LAWS, LawContext, check_signature_axioms, run_catalogue
from .norms import NormFamily, NormKind, NormSide, closed_form, residuum_form
from .reports import LawReport, Violation
from .tables import ValueTable, square
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


def d_star_closed_form(alg: SAlgebra, a: UnitValue, b: UnitValue) -> UnitValue:
    """Per-family closed form of the induced distance."""
    kind = alg.norm.kind
    if kind is NormKind.LUKASIEWICZ:
        return UnitValue(abs(a - b))
    if a == b:
        return ZERO
    if kind is NormKind.GOEDEL:
        return max(a, b)
    return UnitValue(abs(a - b) / (1 - min(a, b)))


def d_bigstar(alg: SAlgebra, a: PairValue, b: PairValue) -> UnitValue:
    """Pair distance d(a1, b1) * d(a2, b2)."""
    return alg.star(d_star(alg, a.first, b.first), d_star(alg, a.second, b.second))


def weaker_than_lukasiewicz(alg: SAlgebra, g: GridSpec) -> bool:
    """True if the s-norm is pointwise <= min(1, x+y) on the grid."""
    star, luk = alg.star, closed_form(NormFamily.s_norm(NormKind.LUKASIEWICZ))
    return all(star(x, y) <= luk(x, y) for x, y in itertools.product(g.points(), repeat=2))


def d_star_closed_form_check(alg: SAlgebra, g: GridSpec) -> LawReport:
    """Definitional distance against the closed form on all grid pairs."""
    report = LawReport("d-closed-form")
    for a, b in itertools.product(g.points(), repeat=2):
        report.checked += 1
        lhs, rhs = d_star(alg, a, b), d_star_closed_form(alg, a, b)
        if lhs != rhs:
            report.register(Violation("d-closed-form", (a, b), lhs, rhs))
    return report


def _metric_laws(prefix: str, points, dist, table: ValueTable, star, numeric: bool) -> list[LawReport]:
    """Identity, symmetry, star-triangle and (with ``numeric``) the numeric
    triangle of the distance table ``dist`` (ids) on ``points`` (witness
    labels); point i is row i, and id 0 is the distance 0.  Each law
    compares whole rows over its last variable; only a row that fails is
    swept again, to register its witnesses in tuple order."""
    values, le = table.values, table.le
    m = len(points)
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
    # The numeric triangle in integers: every distance over one common denominator.
    common = lcm(*(values[i].denominator for row in dist for i in row))
    scaled = [[values[i].numerator * (common // values[i].denominator) for i in row] for row in dist]
    scaled_cols = [list(col) for col in zip(*scaled)]
    for a, b in itertools.product(rng, repeat=2):
        d_ab, bounds = dist[a][b], star.map(dist[a], cols[b])
        if table.all_le([d_ab] * m, bounds) and (
            triangle is None or scaled[a][b] <= min(map(operator.add, scaled[a], scaled_cols[b]))
        ):
            continue
        for c in rng:
            if not le(d_ab, bounds[c]):
                star_triangle.register(
                    Violation(star_triangle.law_id, (points[a], points[b], points[c]), values[d_ab], values[bounds[c]])
                )
            if triangle is not None and scaled[a][b] > scaled[a][c] + scaled[c][b]:
                total = Fraction(values[dist[a][c]]) + Fraction(values[dist[c][b]])
                triangle.register(Violation(triangle.law_id, (points[a], points[b], points[c]), values[d_ab], total))
    return [identity, symmetry, star_triangle] + ([triangle] if numeric else [])


def _distances(alg: SAlgebra, pts):
    """The grid interned, the s-norm, residuum and distance on ids, and the
    table of d(a, b) ids on the grid."""
    table = ValueTable(pts)
    star, res = table.operation(alg.star), table.operation(alg.res)
    dist = table.memo(lambda a, b: star(res(a, b), res(b, a)))
    return table, star, res, dist, square(dist, len(pts))


def metric_axioms_check(alg: SAlgebra, g: GridSpec) -> list[LawReport]:
    """Identity of indiscernibles, symmetry, the star-triangle inequality,
    and (when the norm is weaker than Lukasiewicz) the numeric triangle
    inequality, all exhaustively on the grid."""
    table, star, _, _, dist = _distances(alg, g.points())
    return _metric_laws("d", g.points(), dist, table, star, weaker_than_lukasiewicz(alg, g))


def pair_metric_axioms_check(alg: SAlgebra, g: GridSpec) -> list[LawReport]:
    """The three pair-distance clauses (plus the numeric triangle when it
    applies) over all pairs of grid points; cubic in the squared grid."""
    pts = g.points()
    table, star, _, _, dist = _distances(alg, pts)
    pairs = [(x, y) for x in range(len(pts)) for y in range(len(pts))]
    pair_dist = [[star(dist[a1][b1], dist[a2][b2]) for b1, b2 in pairs] for a1, a2 in pairs]
    labels = [PairValue(pts[x], pts[y]) for x, y in pairs]
    return _metric_laws("pair", labels, pair_dist, table, star, weaker_than_lukasiewicz(alg, g))


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
    per contract over the flattened pairs (b1, b2); only a row that fails is
    swept again, to register its witnesses in tuple order.
    """
    pts = g.points()
    n = len(pts)
    rng = range(n)
    table, star, res, dist, dist_g = _distances(alg, pts)
    values, le = table.values, table.le
    res_g, star_g = square(res, n), square(star, n)
    res_t = [list(col) for col in zip(*res_g)]
    pairs = list(itertools.product(rng, repeat=2))
    # Rows over (b1, b2): a table entry at (b1, b2), at (a, b1) repeated for
    # each b2, or at (a, b2) tiled for each b1.
    star_b, res_b = [star_g[b1][b2] for b1, b2 in pairs], [res_g[b1][b2] for b1, b2 in pairs]
    repeated = lambda tab: [[x for x in row for _ in rng] for row in tab]
    tiled = lambda tab: [row * n for row in tab]
    dist_rep, dist_tile = repeated(dist_g), tiled(dist_g)
    res_rep, res_tile, res_t_rep, res_t_tile = repeated(res_g), tiled(res_g), repeated(res_t), tiled(res_t)
    reports = [LawReport(law, n**4) for law in ("star-lipschitz", "res-lipschitz", "z1", "z2", "z3")]
    for a1 in rng:
        z1 = (res_tile[a1], star.map(res_rep[a1], res_b))
        for a2 in rng:
            r_a = res_g[a1][a2]
            big = star.map(dist_rep[a1], dist_tile[a2])
            rows = (
                (dist.row(star_g[a1][a2], star_b), big),
                (dist.row(r_a, res_b), big),
                z1,
                (res.map(res_b, [r_a] * len(pairs)), star.map(res_rep[a1], res_t_tile[a2])),
                (res.row(r_a, res_b), star.map(res_t_rep[a1], res_tile[a2])),
            )
            if all(table.all_le(lhs, rhs) for lhs, rhs in rows):
                continue
            for k, (b1, b2) in enumerate(pairs):
                for report, (lhs, rhs) in zip(reports, rows):
                    if not le(lhs[k], rhs[k]):
                        tup = (pts[a1], pts[a2], pts[b1], pts[b2])
                        report.register(Violation(report.law_id, tup, values[lhs[k]], values[rhs[k]]))
    return reports


def tuples_checked(grid: int, grid4: int, laws_grid: int, ids=()) -> int:
    """The sum of the ``checked`` counts of the reports ``reslat metric``
    makes: the closed form and the metric axioms at ``grid`` (with the
    numeric triangle: every s-norm here is below Lukasiewicz's), the
    signature axioms at most at MAX_AXIOM_GRID, the continuity contracts at
    ``grid4`` and the D-laws ``ids`` at ``laws_grid``."""
    m, s, n, k = grid + 1, min(grid, MAX_AXIOM_GRID) + 1, grid4 + 1, laws_grid + 1
    arity = {law_id: arity for law_id, arity, _, _ in D_LAWS}
    return 3 * m**2 + 2 * m**3 + (2 * s**3 + 4 * s**2 + s) + 5 * n**4 + sum(k ** arity[i] for i in ids)


def _grid_context(alg: SAlgebra, g: GridSpec) -> LawContext:
    """The grid as a law context on interned ids: 0 is ZERO, len(g) - 1 is ONE."""
    table = ValueTable(g.points())
    values, le = table.values, table.le
    return LawContext(
        lambda: range(len(g)),
        table.operation(alg.star),
        table.operation(alg.res),
        lambda a, b: a if le(a, b) else b,
        lambda a, b: b if le(a, b) else a,
        le,
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

    def ends(self) -> tuple:
        return (self.lo, self.hi)

    def describe(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


class Point:
    __slots__ = ("value",)

    def __init__(self, value: UnitValue):
        self.value = value

    def contains(self, v: UnitValue) -> bool:
        return v == self.value

    def ends(self) -> tuple:
        return (self.value,)

    def describe(self) -> str:
        return f"{{{self.value}}}"


class IntervalBall:
    """Open ball {b : d(center, b) < radius} with a closed-form description.

    The description is a union of at most two intervals/points; membership
    can always be decided from the raw metric predicate, and the two must
    agree at every point of [0, 1] (decided by :meth:`agreement_check`).
    """

    __slots__ = ("algebra", "center", "radius", "pieces")

    def __init__(self, algebra: SAlgebra, center: UnitValue, radius: UnitValue, pieces: tuple):
        self.algebra, self.center, self.radius, self.pieces = algebra, center, radius, pieces

    def contains(self, b: UnitValue) -> bool:
        return d_star(self.algebra, self.center, b) < self.radius

    def closed_form_contains(self, b: UnitValue) -> bool:
        return any(p.contains(b) for p in self.pieces)

    def describe(self) -> str:
        return " U ".join(p.describe() for p in self.pieces)

    def agreement_check(self) -> LawReport:
        """The closed form against the predicate on all of [0, 1], exactly.

        With centre c and radius r, d(c, .) falls on [0, c] and rises on
        [c, 1], and by adjunction d(c, b) <= r iff R(r, c) <= b <= S(c, r).
        For the three families d(c, .) takes the value r at most once on
        each side of c, or (Goedel) on all of [0, c).  So the predicate is
        constant between neighbouring cut points (0, c, 1, R(r, c), S(c, r))
        and the closed form between neighbouring piece endpoints: checking
        every cut point, every endpoint, and the midpoint between each
        neighbouring pair of them decides agreement everywhere.
        """
        alg, c, r = self.algebra, self.center, self.radius
        cuts = {ZERO, ONE, c, alg.res(r, c), alg.star(c, r)}
        for piece in self.pieces:
            cuts.update(piece.ends())
        cuts = sorted(cuts)
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
        pieces = (_clamped_open_interval(center - radius, center + radius),)
    elif kind is NormKind.GOEDEL:
        if radius <= center:
            pieces = (Point(center),)
        else:
            pieces = (Interval(ZERO, True, radius, False),)
    else:
        # Product: invert |a-b| / (1 - min(a, b)) < r around a.
        if center == ONE:
            pieces = (Point(ONE),)
        elif radius == ONE:
            pieces = (Interval(ZERO, True, ONE, False),)
        else:
            lo = (center - radius) / (1 - radius)
            hi = center + radius * (1 - center)
            pieces = (_clamped_open_interval(lo, hi),)
    return IntervalBall(alg, center, radius, pieces)
