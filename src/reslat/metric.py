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
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidRadius
from .laws import D_LAWS, LawContext, check_signature_axioms, run_catalogue
from .norms import NormFamily, NormKind, NormSide, apply_norm, residuum
from .reports import LawReport, Violation
from .unitval import ONE, ZERO, GridSpec, UnitValue


@dataclass(frozen=True)
class SAlgebra:
    """[0,1] with max/min, a continuous s-norm, and its residuum."""

    norm: NormFamily

    def __post_init__(self):
        if self.norm.side is not NormSide.SNORM:
            raise ValueError("SAlgebra requires the s-norm side of a family")
        if not self.norm.is_residuated:
            raise ValueError("SAlgebra requires a continuous (residuated) s-norm")

    @classmethod
    def of(cls, kind: NormKind | str) -> "SAlgebra":
        if isinstance(kind, str):
            return cls(NormFamily.from_name(kind, NormSide.SNORM))
        return cls(NormFamily(kind, NormSide.SNORM))

    def star(self, x: UnitValue, y: UnitValue) -> UnitValue:
        return apply_norm(self.norm, x, y)

    def res(self, x: UnitValue, y: UnitValue) -> UnitValue:
        return residuum(self.norm, x, y)


@dataclass(frozen=True)
class PairValue:
    first: UnitValue
    second: UnitValue

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
    luk = NormFamily.s_norm(NormKind.LUKASIEWICZ)
    return all(
        alg.star(x, y) <= apply_norm(luk, x, y)
        for x, y in itertools.product(g.points(), repeat=2)
    )


def d_star_closed_form_check(alg: SAlgebra, g: GridSpec) -> LawReport:
    """Definitional distance against the closed form on all grid pairs."""
    report = LawReport("d-closed-form")
    for a, b in itertools.product(g.points(), repeat=2):
        report.checked += 1
        lhs, rhs = d_star(alg, a, b), d_star_closed_form(alg, a, b)
        if lhs != rhs:
            report.register(Violation("d-closed-form", (a, b), lhs, rhs))
    return report


def _distance_table(alg: SAlgebra, pts) -> dict:
    return {(a, b): d_star(alg, a, b) for a in pts for b in pts}


def metric_axioms_check(alg: SAlgebra, g: GridSpec) -> list[LawReport]:
    """Identity of indiscernibles, symmetry, the star-triangle inequality,
    and (when the norm is weaker than Lukasiewicz) the numeric triangle
    inequality, all exhaustively on the grid."""
    pts = g.points()
    dist = _distance_table(alg, pts)

    identity = LawReport("d-identity")
    symmetry = LawReport("d-symmetry")
    for a, b in itertools.product(pts, repeat=2):
        identity.checked += 1
        if (dist[a, b] == ZERO) != (a == b):
            identity.register(Violation("d-identity", (a, b), dist[a, b], ZERO))
        symmetry.checked += 1
        if dist[a, b] != dist[b, a]:
            symmetry.register(Violation("d-symmetry", (a, b), dist[a, b], dist[b, a]))

    star_triangle = LawReport("d-star-triangle")
    numeric = weaker_than_lukasiewicz(alg, g)
    triangle = LawReport("d-triangle") if numeric else None
    for a, b, c in itertools.product(pts, repeat=3):
        star_triangle.checked += 1
        bound = alg.star(dist[a, c], dist[c, b])
        if dist[a, b] > bound:
            star_triangle.register(Violation("d-star-triangle", (a, b, c), dist[a, b], bound))
        if triangle is not None:
            triangle.checked += 1
            total = Fraction(dist[a, c]) + Fraction(dist[c, b])
            if dist[a, b] > total:
                triangle.register(Violation("d-triangle", (a, b, c), dist[a, b], total))
    reports = [identity, symmetry, star_triangle]
    if triangle is not None:
        reports.append(triangle)
    return reports


def pair_metric_axioms_check(alg: SAlgebra, g: GridSpec) -> list[LawReport]:
    """The three pair-distance clauses (plus the numeric triangle when it
    applies) over all pairs of grid points; cubic in the squared grid."""
    pts = g.points()
    dist = _distance_table(alg, pts)
    pairs = [PairValue(x, y) for x in pts for y in pts]

    def pair_dist(a: PairValue, b: PairValue) -> UnitValue:
        return alg.star(dist[a.first, b.first], dist[a.second, b.second])

    identity = LawReport("pair-identity")
    symmetry = LawReport("pair-symmetry")
    for a, b in itertools.product(pairs, repeat=2):
        identity.checked += 1
        if (pair_dist(a, b) == ZERO) != (a == b):
            identity.register(Violation("pair-identity", (a, b), pair_dist(a, b), ZERO))
        symmetry.checked += 1
        if pair_dist(a, b) != pair_dist(b, a):
            symmetry.register(Violation("pair-symmetry", (a, b), pair_dist(a, b), pair_dist(b, a)))

    star_triangle = LawReport("pair-star-triangle")
    numeric = weaker_than_lukasiewicz(alg, g)
    triangle = LawReport("pair-triangle") if numeric else None
    for a, b, c in itertools.product(pairs, repeat=3):
        star_triangle.checked += 1
        d_ab = pair_dist(a, b)
        bound = alg.star(pair_dist(a, c), pair_dist(c, b))
        if d_ab > bound:
            star_triangle.register(Violation("pair-star-triangle", (a, b, c), d_ab, bound))
        if triangle is not None:
            triangle.checked += 1
            total = Fraction(pair_dist(a, c)) + Fraction(pair_dist(c, b))
            if d_ab > total:
                triangle.register(Violation("pair-triangle", (a, b, c), d_ab, total))
    reports = [identity, symmetry, star_triangle]
    if triangle is not None:
        reports.append(triangle)
    return reports


def continuity_inequalities_check(alg: SAlgebra, g: GridSpec) -> list[LawReport]:
    """The Lipschitz-style continuity contracts for the s-norm and its
    residuum, plus the three intermediate inequalities, over all grid
    4-tuples (a1, a2, b1, b2):

      star-lipschitz  d(a1*a2, b1*b2) <= D(a, b)
      res-lipschitz   d(a1->a2, b1->b2) <= D(a, b)
      z1              (a1->b1)*(b1->b2) >= a1->b2
      z2              (b1->b2)->(a1->a2) <= (a1->b1)*(b2->a2)
      z3              (a1->a2)->(b1->b2) <= (b1->a1)*(a2->b2)

    where D(a, b) = d(a1, b1) * d(a2, b2).
    """
    pts = g.points()
    m = len(pts)
    rng = range(m)

    # Values are interned to small integers so the hot loop works on
    # int-keyed dictionaries instead of repeated Fraction arithmetic.
    values: list[UnitValue] = []
    intern: dict = {}

    def vid(v: UnitValue) -> int:
        i = intern.get(v)
        if i is None:
            i = len(values)
            intern[v] = i
            values.append(v)
        return i

    res_id = [[vid(alg.res(pts[i], pts[j])) for j in rng] for i in rng]
    star_grid_id = [[vid(alg.star(pts[i], pts[j])) for j in rng] for i in rng]

    star_pair: dict = {}
    res_pair: dict = {}
    dist_pair: dict = {}
    le_pair: dict = {}

    def star2(i: int, j: int) -> int:
        key = (i, j)
        v = star_pair.get(key)
        if v is None:
            v = vid(alg.star(values[i], values[j]))
            star_pair[key] = v
        return v

    def res2(i: int, j: int) -> int:
        key = (i, j)
        v = res_pair.get(key)
        if v is None:
            v = vid(alg.res(values[i], values[j]))
            res_pair[key] = v
        return v

    def dist2(i: int, j: int) -> int:
        key = (i, j)
        v = dist_pair.get(key)
        if v is None:
            v = star2(res2(i, j), res2(j, i))
            dist_pair[key] = v
        return v

    def le2(i: int, j: int) -> bool:
        key = (i, j)
        v = le_pair.get(key)
        if v is None:
            v = values[i] <= values[j]
            le_pair[key] = v
        return v

    dist_grid_id = [[star2(res_id[i][j], res_id[j][i]) for j in rng] for i in rng]

    ids = ["star-lipschitz", "res-lipschitz", "z1", "z2", "z3"]
    reports = {law: LawReport(law) for law in ids}
    total = 0

    def fail(law: str, tup, lhs_id: int, rhs_id: int):
        reports[law].register(Violation(law, tup, values[lhs_id], values[rhs_id]))

    for a1 in rng:
        res_a1 = res_id[a1]
        star_a1 = star_grid_id[a1]
        dist_a1 = dist_grid_id[a1]
        for a2 in rng:
            r_a = res_a1[a2]
            s_a = star_a1[a2]
            res_a2 = res_id[a2]
            dist_a2 = dist_grid_id[a2]
            for b1 in rng:
                d1 = dist_a1[b1]
                r_a1b1 = res_a1[b1]
                r_b1a1 = res_id[b1][a1]
                res_b1 = res_id[b1]
                star_b1 = star_grid_id[b1]
                for b2 in rng:
                    total += 1
                    big = star2(d1, dist_a2[b2])
                    r_b = res_b1[b2]
                    if not le2(dist2(s_a, star_b1[b2]), big):
                        fail("star-lipschitz", (pts[a1], pts[a2], pts[b1], pts[b2]), dist2(s_a, star_b1[b2]), big)
                    if not le2(dist2(r_a, r_b), big):
                        fail("res-lipschitz", (pts[a1], pts[a2], pts[b1], pts[b2]), dist2(r_a, r_b), big)
                    if not le2(res_a1[b2], star2(r_a1b1, r_b)):
                        fail("z1", (pts[a1], pts[a2], pts[b1], pts[b2]), res_a1[b2], star2(r_a1b1, r_b))
                    if not le2(res2(r_b, r_a), star2(r_a1b1, res_id[b2][a2])):
                        fail("z2", (pts[a1], pts[a2], pts[b1], pts[b2]), res2(r_b, r_a), star2(r_a1b1, res_id[b2][a2]))
                    if not le2(res2(r_a, r_b), star2(r_b1a1, res_a2[b2])):
                        fail("z3", (pts[a1], pts[a2], pts[b1], pts[b2]), res2(r_a, r_b), star2(r_b1a1, res_a2[b2]))
    for law in ids:
        reports[law].checked = total
    return [reports[law] for law in ids]


def _grid_context(alg: SAlgebra, g: GridSpec) -> LawContext:
    return LawContext(g.points, alg.star, alg.res, min, max, operator.le, ZERO, ONE, str)


def dbl_laws_check(alg: SAlgebra, g: GridSpec, ids=None) -> list[LawReport]:
    """D1..D15 exhaustively over grid tuples (arity up to 4)."""
    return run_catalogue(_grid_context(alg, g), D_LAWS, ids)


def dbl_axioms_check(alg: SAlgebra, g: GridSpec) -> list[LawReport]:
    """The five signature axioms of the dual structure, exhaustively on the grid."""
    return check_signature_axioms(_grid_context(alg, g))


@dataclass(frozen=True)
class Interval:
    lo: UnitValue
    lo_closed: bool
    hi: UnitValue
    hi_closed: bool

    def contains(self, v: UnitValue) -> bool:
        if v < self.lo or (v == self.lo and not self.lo_closed):
            return False
        if v > self.hi or (v == self.hi and not self.hi_closed):
            return False
        return True

    def describe(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


@dataclass(frozen=True)
class Point:
    value: UnitValue

    def contains(self, v: UnitValue) -> bool:
        return v == self.value

    def describe(self) -> str:
        return f"{{{self.value}}}"


@dataclass(frozen=True)
class IntervalBall:
    """Open ball {b : d(center, b) < radius} with a closed-form description.

    The description is a union of at most two intervals/points; membership
    can always be decided from the raw metric predicate, and the two must
    agree at every point (checked by :meth:`agreement_check`).
    """

    algebra: SAlgebra
    center: UnitValue
    radius: UnitValue
    pieces: tuple

    def contains(self, b: UnitValue) -> bool:
        return d_star(self.algebra, self.center, b) < self.radius

    def closed_form_contains(self, b: UnitValue) -> bool:
        return any(p.contains(b) for p in self.pieces)

    def describe(self) -> str:
        return " U ".join(p.describe() for p in self.pieces)

    def agreement_check(self, g: GridSpec) -> LawReport:
        report = LawReport("ball-closed-form")
        for b in g.points():
            report.checked += 1
            raw, closed = self.contains(b), self.closed_form_contains(b)
            if raw != closed:
                report.register(Violation("ball-closed-form", (self.center, self.radius, b), raw, closed))
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
