"""Ball-generated topologies on finite BL/DBL-algebras.

Admissible radii are the strongly-less-than-1 elements (BL side) or the
positive elements (DBL side).  Balls compare against the radius in the
strict lattice order (comparable and unequal); incomparable elements never
qualify.  A subset is open when every one of its points has a ball, for some
admissible radius, inside the subset.

Every decision here uses one smallest ball per centre.  In any lattice the
admissible radii are closed under join (BL) and meet (DBL): if a and a' are
strongly below 1 and (a | a') | b = 1, then a | (a' | b) = 1, so a' | b = 1
and b = 1; the DBL case is the order dual.  So the widest radius r*, the
join (BL) or meet (DBL) of all admissible radii, is admissible, and since the
strict order is transitive, N(a) = ball(a, r*) lies inside ball(a, r) for
every admissible r.  A set is therefore open iff it contains N(a) for each
of its points: the opens are the N-closed sets, an Alexandrov topology.  The
squared carrier works the same way, with N2(p) at the same r*.

A map f from pairs is continuous iff f(q) lies in U(f(p)) for every pair p
and every q in N2(p), where U(x), the closure of {x} under N, is the
smallest open containing x.  That is an O(n^4) neighbourhood check.  The
2^n subset enumeration serves only the listing of the opens, where the
topology axioms are also verified on the result; count_opens counts the
opens from the U(a) alone.

Subsets are represented internally as bitmasks over the carrier (and over
the squared carrier, pair (i, j) at bit i * n + j, for product-space work).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from .errors import CarrierTooLarge, InadmissibleRadius, TheoremViolation
from .finite import FiniteAlgebra, Signature, dbl_context
from .laws import as_bl
from .reports import LawReport, Violation

DEFAULT_ENUMERATION_BOUND = 14


def _is_positive(alg: FiniteAlgebra, a: int) -> bool:
    # DBL side: meet(a, b) = 0 forces b = 0.
    return all(b == alg.bottom for b in alg.elements() if alg.meet(a, b) == alg.bottom)


def _is_strongly_less(alg: FiniteAlgebra, a: int) -> bool:
    # BL side: join(a, b) = 1 forces b = 1.
    return all(b == alg.top for b in alg.elements() if alg.join(a, b) == alg.top)


def _admissible_indices(alg: FiniteAlgebra) -> tuple[int, ...]:
    test = _is_strongly_less if alg.signature is Signature.BL else _is_positive
    return tuple(a for a in alg.elements() if test(alg, a))


@dataclass(frozen=True)
class RadiusSet:
    """The admissible ball radii of an algebra, in carrier order."""

    algebra: FiniteAlgebra
    labels: tuple[str, ...]

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


def admissible_radii(alg: FiniteAlgebra) -> RadiusSet:
    """Strongly-less-than-1 elements (BL) or positive elements (DBL)."""
    return RadiusSet(alg, tuple(alg.labels[i] for i in _admissible_indices(alg)))


def _widest_radius(alg: FiniteAlgebra) -> int:
    # Never empty: the bottom is strongly less than 1 and the top is positive.
    combine = alg.join if alg.signature is Signature.BL else alg.meet
    return reduce(combine, _admissible_indices(alg))


def _inside(alg: FiniteAlgebra, radius: int, value: int) -> bool:
    if alg.signature is Signature.BL:
        return alg.lt(radius, value)  # biresiduum > r
    return alg.lt(value, radius)  # distance < r


def _ball_mask(alg: FiniteAlgebra, center: int, radius: int) -> int:
    return sum(1 << b for b in alg.elements() if _inside(alg, radius, alg.bires(center, b)))


def _pair_ball_mask(alg: FiniteAlgebra, center: tuple[int, int], radius: int) -> int:
    n = alg.n
    return sum(
        1 << (b1 * n + b2)
        for b1, b2 in itertools.product(range(n), repeat=2)
        if _inside(alg, radius, alg.pair_bires(center, (b1, b2)))
    )


def _smallest_balls(alg: FiniteAlgebra) -> list[int]:
    """N(a) for every centre a, in carrier order."""
    r = _widest_radius(alg)
    return [_ball_mask(alg, a, r) for a in alg.elements()]


def _smallest_pair_balls(alg: FiniteAlgebra) -> list[int]:
    """N2(p) for every pair p, in pair-index order."""
    r = _widest_radius(alg)
    return [_pair_ball_mask(alg, p, r) for p in itertools.product(alg.elements(), repeat=2)]


def _mask_is_open(balls: list[int], mask: int) -> bool:
    """True iff the set contains the smallest ball of each of its points."""
    return all(ball & ~mask == 0 for a, ball in enumerate(balls) if mask >> a & 1)


def _smallest_open(balls: list[int], a: int) -> int:
    """U(a): the closure of {a} under the smallest balls."""
    mask, grown = 0, 1 << a
    while grown != mask:
        mask = grown
        for b, ball in enumerate(balls):
            if mask >> b & 1:
                grown |= ball
    return mask


def _check_radius(alg: FiniteAlgebra, radius: int) -> None:
    if radius not in _admissible_indices(alg):
        kind = "strongly-less-than-1" if alg.signature is Signature.BL else "positive"
        raise InadmissibleRadius(f"radius {alg.labels[radius]!r} is not {kind}")


def ball(alg: FiniteAlgebra, center: str, radius: str) -> frozenset[str]:
    """The ball around ``center`` of admissible radius ``radius``."""
    c, r = alg.index(center), alg.index(radius)
    _check_radius(alg, r)
    return frozenset(_labels_of(alg, _ball_mask(alg, c, r)))


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
    return _mask_is_open(_smallest_balls(alg), _mask_of(alg, subset))


@dataclass(frozen=True)
class Topology:
    algebra: FiniteAlgebra
    masks: tuple[int, ...]

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


def _verify_topology_axioms(alg: FiniteAlgebra, masks: tuple[int, ...]) -> None:
    full = (1 << alg.n) - 1
    family = set(masks)
    if 0 not in family or full not in family:
        raise TheoremViolation("open-set family misses the empty set or the carrier")
    if len(family) == 1 << alg.n:
        return  # the discrete powerset is trivially closed
    for m1, m2 in itertools.combinations_with_replacement(masks, 2):
        if m1 | m2 not in family:
            raise TheoremViolation(
                f"opens not closed under union: {_labels_of(alg, m1)} | {_labels_of(alg, m2)}"
            )
        if m1 & m2 not in family:
            raise TheoremViolation(
                f"opens not closed under intersection: {_labels_of(alg, m1)} & {_labels_of(alg, m2)}"
            )


def enumerate_topology(alg: FiniteAlgebra, bound: int = DEFAULT_ENUMERATION_BOUND) -> Topology:
    """Classify all 2^n subsets and verify the topology axioms on the result.

    Raises TheoremViolation if the family fails an axiom; for valid algebras
    this cannot happen (the executable form of the topology theorem).
    """
    if alg.n > bound:
        raise CarrierTooLarge(f"carrier size {alg.n} exceeds enumeration bound {bound}")
    balls = _smallest_balls(alg)
    masks = tuple(
        sorted(
            (m for m in range(1 << alg.n) if _mask_is_open(balls, m)),
            key=lambda m: (m.bit_count(), tuple(i for i in range(alg.n) if m >> i & 1)),
        )
    )
    _verify_topology_axioms(alg, masks)
    return Topology(alg, masks)


def count_opens(alg: FiniteAlgebra) -> int:
    """The number of open sets, without enumerating subsets.

    An open set that holds a point a holds U(a).  Splitting on one undecided
    point a: the opens without a hold no point whose U(.) contains a, and the
    opens with a hold all of U(a); either way the rest is the same problem on
    fewer points.  When the biresiduum is symmetric (a commutative monoid),
    the U(a) are classes, both branches drop the class of a, and the memo
    makes the count linear in the number of classes.
    """
    balls = _smallest_balls(alg)
    ups = [_smallest_open(balls, a) for a in alg.elements()]
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
    c = (alg.index(center[0]), alg.index(center[1]))
    r = alg.index(radius)
    _check_radius(alg, r)
    mask = _pair_ball_mask(alg, c, r)
    return frozenset(
        (alg.labels[i], alg.labels[j])
        for i, j in itertools.product(alg.elements(), repeat=2)
        if mask >> (i * alg.n + j) & 1
    )


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
    balls = _smallest_balls(alg)
    smallest_opens = [_smallest_open(balls, a) for a in alg.elements()]
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
    adm = set(_admissible_indices(alg))
    fmt = ctx.fmt
    lt = lambda a, b: a != b and ctx.le(a, b)

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
        combined = ctx.meet(a, b)
        if combined not in adm:
            fourth.register(Violation("G4", (fmt(a), fmt(b)), fmt(combined), "admissible"))

    reports = [first, second, third, fourth]
    return as_bl(reports) if alg.signature is Signature.BL else reports
