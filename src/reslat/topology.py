"""Ball-generated topologies on finite BL/DBL-algebras.

Every radius, ball and open-set decision runs on the algebra in the DBL
form, ``finite.dbl_context``: a DBL-algebra itself, or the order dual of a
BL-algebra.  There the admissible radii are the positive elements (a meet
with 0 is 0 only for 0), and the ball of radius r around c holds the points
whose distance from c lies strictly below r (comparable and unequal).  On a
BL-algebra these are the strongly-less-than-1 elements and the points whose
biresiduum lies strictly above r.  A subset is open when every one of its
points has a ball, for some admissible radius, inside the subset.

In any lattice the positive elements are closed under meet: if a and a' are
positive and (a & a') & b = 0, then a & (a' & b) = 0, so a' & b = 0 and
b = 0.  So the widest radius r*, the meet of all admissible radii, is
admissible, and since the strict order is transitive, N(a) = ball(a, r*)
lies inside ball(a, r) for every admissible r.  A set is therefore open iff
it contains N(a) for each of its points: the opens are the N-closed sets,
an Alexandrov topology, and exactly the unions of the smallest opens U(a),
the closures of {a} under N.  The squared carrier works the same way, with
N2(p) at the same r*.

A map f from pairs is continuous iff f(q) lies in U(f(p)) for every pair p
and every q in N2(p): an O(n^4) neighbourhood check, on balls N2 built in
O(n^3) from the distances on the carrier.  The listing of the opens builds
every union of the U(a), so its cost grows with the number of opens, and
verifies the topology axioms on the result; count_opens counts the opens
from the U(a) alone.

Subsets are represented internally as bitmasks over the carrier (and over
the squared carrier, pair (i, j) at bit i * n + j, for product-space work).
"""

from __future__ import annotations

import itertools
from functools import reduce

from .errors import CarrierTooLarge, InadmissibleRadius, TheoremViolation
from .finite import FiniteAlgebra, Signature, dbl_context
from .laws import LawContext, as_bl
from .reports import LawReport, Violation

# Largest carrier the listing of the opens accepts; a discrete topology on
# it has 2^20 opens.
MAX_LISTED_CARRIER = 20


def _radii(ctx: LawContext) -> list[int]:
    """The positive elements of the DBL form (their meet is 0 only with 0), in carrier order."""
    return [a for a in ctx.elements() if ctx.meet[a].count(ctx.zero) == 1]


def admissible_radii(alg: FiniteAlgebra) -> tuple[str, ...]:
    """Positive elements of the DBL form: strongly-less-than-1 elements (BL)
    or positive elements (DBL), in carrier order."""
    return tuple(alg.labels[i] for i in _radii(dbl_context(alg)))


def _ball_mask(ctx: LawContext, radius: int, distances) -> int:
    """The points whose distance, in point order, lies strictly below the radius."""
    return sum(1 << k for k, d in enumerate(distances) if d != radius and ctx.le[d][radius])


def _inside_widest_radius(alg: FiniteAlgebra) -> list[bool]:
    """For each element, whether it lies strictly below the widest radius,
    the meet of the admissible radii (there is one: the top of the DBL form
    is positive)."""
    ctx = dbl_context(alg)
    radius = reduce(lambda a, b: ctx.meet[a][b], _radii(ctx))
    return [d != radius and ctx.le[d][radius] for d in ctx.elements()]


def _smallest_opens(alg: FiniteAlgebra) -> list[int]:
    """U(a) for every a in carrier order: the closure of {a} under the smallest balls."""
    inside = _inside_widest_radius(alg)
    balls = [sum(1 << b for b in alg.elements() if inside[alg.bires(a, b)]) for a in alg.elements()]
    ups = []
    for a in alg.elements():
        mask, grown = 0, 1 << a
        while grown != mask:
            mask = grown
            for b, ball in enumerate(balls):
                if mask >> b & 1:
                    grown |= ball
        ups.append(mask)
    return ups


def _smallest_pair_balls(alg: FiniteAlgebra) -> list[int]:
    """N2(p) for every pair p, in pair-index order, in O(n^3).

    The pair distance of (a1, a2) and (b1, b2) is star(d(a1, b1), d(a2, b2)),
    so N2(a1, a2) is the union over b1 of the strip of b2 with
    star(d(a1, b1), d(a2, b2)) inside, at bits b1 * n + b2; the strips depend
    only on the value d(a1, b1) and on a2.
    """
    n, inside = alg.n, _inside_widest_radius(alg)
    dist = [[alg.bires(a, b) for b in alg.elements()] for a in alg.elements()]
    strips = [
        [sum(1 << b2 for b2, d in enumerate(dist[a2]) if inside[alg.star(v, d)]) for a2 in alg.elements()]
        for v in alg.elements()
    ]
    balls = []
    for a1, a2 in itertools.product(alg.elements(), repeat=2):
        mask = 0
        for b1, d in enumerate(dist[a1]):
            mask |= strips[d][a2] << (b1 * n)
        balls.append(mask)
    return balls


def _mask_is_open(smallest: list[int], mask: int) -> bool:
    """True iff the set contains, for each of its points a, smallest[a]: its
    smallest ball or, equivalently, its smallest open."""
    return all(m & ~mask == 0 for a, m in enumerate(smallest) if mask >> a & 1)


def _admissible(alg: FiniteAlgebra, radius: str) -> tuple[LawContext, int]:
    ctx, r = dbl_context(alg), alg.index(radius)
    if r not in _radii(ctx):
        raise InadmissibleRadius(f"radius {radius!r} is not admissible (positive in the DBL form)")
    return ctx, r


def ball(alg: FiniteAlgebra, center: str, radius: str) -> frozenset[str]:
    """The ball around ``center`` of admissible radius ``radius``."""
    ctx, r = _admissible(alg, radius)
    c = alg.index(center)
    return frozenset(_labels_of(alg, _ball_mask(ctx, r, (alg.bires(c, b) for b in alg.elements()))))


def _mask_of(alg: FiniteAlgebra, subset) -> int:
    mask = 0
    for label in subset:
        mask |= 1 << alg.index(label)
    return mask


def _labels_of(alg: FiniteAlgebra, mask: int) -> tuple[str, ...]:
    return tuple(alg.labels[i] for i in alg.elements() if mask >> i & 1)


def _set_text(alg: FiniteAlgebra, mask: int) -> str:
    return "{" + ", ".join(_labels_of(alg, mask)) + "}"


def is_open(alg: FiniteAlgebra, subset) -> bool:
    """True iff every point of the subset has a ball inside it (empty set is
    vacuously open)."""
    return _mask_is_open(_smallest_opens(alg), _mask_of(alg, subset))


class Topology:
    __slots__ = ("algebra", "masks")

    def __init__(self, algebra: FiniteAlgebra, masks: tuple[int, ...]):
        self.algebra, self.masks = algebra, masks

    @property
    def opens(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(_labels_of(self.algebra, m)) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, subset) -> bool:
        return _mask_of(self.algebra, subset) in set(self.masks)

    def export_lines(self) -> list[str]:
        """Line-oriented listing, smallest sets first, labels in carrier order."""
        return [_set_text(self.algebra, m) for m in self.masks]


def _verify_topology_axioms(alg: FiniteAlgebra, masks: tuple[int, ...], ups: list[int]) -> None:
    """The topology axioms on ``masks``, all the unions of the sets ``ups``.

    Closure under union holds by construction.  An intersection of two
    unions is the union of the pairwise intersections of their parts, so
    the family is closed under intersection iff it holds every
    ``ups[a] & ups[b]``.
    """
    family = set(masks)
    if 0 not in family or (1 << alg.n) - 1 not in family:
        raise TheoremViolation("open-set family misses the empty set or the carrier")
    for m1, m2 in itertools.combinations(ups, 2):
        if m1 & m2 not in family:
            raise TheoremViolation(
                f"opens not closed under intersection: {_labels_of(alg, m1)} & {_labels_of(alg, m2)}"
            )


def enumerate_topology(alg: FiniteAlgebra) -> Topology:
    """All open sets, as the unions of the smallest opens, with the topology
    axioms verified on the result.

    Raises CarrierTooLarge above MAX_LISTED_CARRIER elements, and
    TheoremViolation if the family fails an axiom; for valid algebras this
    cannot happen (the executable form of the topology theorem).
    """
    if alg.n > MAX_LISTED_CARRIER:
        raise CarrierTooLarge(f"carrier size {alg.n} exceeds the listing limit {MAX_LISTED_CARRIER}")
    opens, ups = {0}, _smallest_opens(alg)
    for up in ups:
        opens |= {m | up for m in opens}
    masks = tuple(sorted(opens, key=lambda m: (m.bit_count(), tuple(i for i in range(alg.n) if m >> i & 1))))
    _verify_topology_axioms(alg, masks, ups)
    return Topology(alg, masks)


def count_opens(alg: FiniteAlgebra) -> int:
    """The number of open sets, without enumerating them.

    An open set that holds a point a holds U(a).  Splitting on one undecided
    point a: the opens without a hold no point whose U(.) contains a, and the
    opens with a hold all of U(a); either way the rest is the same problem on
    fewer points.  When the biresiduum is symmetric (a commutative monoid),
    the U(a) are classes, both branches drop the class of a, and the memo
    makes the count linear in the number of classes.
    """
    ups = _smallest_opens(alg)
    downs = [sum(1 << b for b, up in enumerate(ups) if up >> a & 1) for a in alg.elements()]
    memo = {0: 1}

    def count(rest: int) -> int:
        if rest not in memo:
            a = (rest & -rest).bit_length() - 1
            memo[rest] = count(rest & ~downs[a]) + count(rest & ~ups[a])
        return memo[rest]

    return count((1 << alg.n) - 1)


# -- product space -------------------------------------------------------------

def product_ball(alg: FiniteAlgebra, center: tuple[str, str], radius: str) -> frozenset[tuple[str, str]]:
    """Ball in the squared carrier under the pair operator."""
    ctx, r = _admissible(alg, radius)
    c = (alg.index(center[0]), alg.index(center[1]))
    pairs = list(itertools.product(alg.elements(), repeat=2))
    mask = _ball_mask(ctx, r, (alg.pair_bires(c, q) for q in pairs))
    return frozenset((alg.labels[i], alg.labels[j]) for k, (i, j) in enumerate(pairs) if mask >> k & 1)


def product_is_open(alg: FiniteAlgebra, subset) -> bool:
    """Openness of a set of label pairs in the product topology."""
    mask = 0
    for a, b in subset:
        mask |= 1 << (alg.index(a) * alg.n + alg.index(b))
    return _mask_is_open(_smallest_pair_balls(alg), mask)


def verify_operation_continuity(alg: FiniteAlgebra) -> list[LawReport]:
    """The monoid and residuum maps, from the squared carrier, must be
    continuous: every pair p maps its smallest ball N2(p) into U(f(p)).

    One check per pair and map.  A failing pair p is reported with the open
    U(f(p)), whose preimage contains p but not N2(p) and so is not open.
    """
    n = alg.n
    smallest_opens = _smallest_opens(alg)
    pair_balls = _smallest_pair_balls(alg)
    reports = []
    for name, table in (("star-continuity", alg.monoid), ("arrow-continuity", alg.residuum)):
        image = [table[p // n][p % n] for p in range(n * n)]
        preimages = [sum(1 << q for q, x in enumerate(image) if up >> x & 1) for up in smallest_opens]
        report = LawReport(name)
        for p, pair_ball in enumerate(pair_balls):
            report.checked += 1
            if pair_ball & ~preimages[image[p]]:
                witness = (alg.labels[p // n], alg.labels[p % n])
                target = _set_text(alg, smallest_opens[image[p]])
                report.register(Violation(name, (target,), f"preimage not open at {witness}", "product-open"))
        reports.append(report)
    return reports


def check_radius_lemmas(alg: FiniteAlgebra) -> list[LawReport]:
    """G1..G4 exhaustively; on the BL side, L1..L4 are G1..G4 on the order dual."""
    ctx = dbl_context(alg)
    adm = set(_radii(ctx))
    fmt = ctx.fmt
    lt = lambda a, b: a != b and ctx.le[a][b]

    first = LawReport("G1", checked=1)
    if ctx.one not in adm:
        first.register(Violation("G1", (fmt(ctx.one),), False, True))

    second = LawReport("G2")
    for a in sorted(adm):
        second.checked += 1
        if not lt(ctx.zero, a):
            second.register(Violation("G2", (fmt(a),), fmt(a), fmt(ctx.zero)))

    third = LawReport("G3")
    for a, b in itertools.product(ctx.elements(), repeat=2):
        third.checked += 1
        # b > a >> 0 implies b >> 0
        if a in adm and lt(a, b) and b not in adm:
            third.register(Violation("G3", (fmt(a), fmt(b)), False, True))

    fourth = LawReport("G4")
    for a, b in itertools.product(sorted(adm), repeat=2):
        fourth.checked += 1
        combined = ctx.meet[a][b]
        if combined not in adm:
            fourth.register(Violation("G4", (fmt(a), fmt(b)), fmt(combined), "admissible"))

    reports = [first, second, third, fourth]
    return as_bl(reports) if alg.signature is Signature.BL else reports
