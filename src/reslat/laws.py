"""One law catalogue for residuated structures, checked by brute force.

Every law is written once, in the DBL form (monoid unit 0, residuum
reversed): the fifteen derived D-laws and the five signature axioms
DBL1..DBL5.  The BL side is their order dual.  Reversing the order of a
BL-algebra, and keeping its tables, gives a DBL-algebra; a BL law holds at a
tuple exactly when its D form holds there on the dual, with the same two
sides.  So a BL-algebra is checked by running the DBL form on its order dual
and renaming the reports with :func:`as_bl` (B1..B15, BL1..BL5), which also
rewords the notes that name the order or a constant.

Laws are written against a :class:`LawContext`, so the same definitions run
over unit-interval grids and over finite table-driven algebras.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from .reports import LawReport, Violation


@dataclass(frozen=True, slots=True)
class LawContext:
    """A structure in the DBL form, as the structure's own callables.

    elements()   deterministic iteration order (fixes witness order)
    star(a, b)   the monoid operation
    res(a, b)    the residuum
    meet / join  lattice inf / sup
    le(a, b)     the lattice order
    zero / one   bottom and top constants (zero is the monoid unit)
    fmt(v)       element rendering for witnesses
    """

    elements: Callable[[], Iterable]
    star: Callable[[Any, Any], Any]
    res: Callable[[Any, Any], Any]
    meet: Callable[[Any, Any], Any]
    join: Callable[[Any, Any], Any]
    le: Callable[[Any, Any], bool]
    zero: Any
    one: Any
    fmt: Callable[[Any], str]


# Each checker returns a list of (lhs, rhs, note) triples for failed clauses.


def _d1(ctx, a, b, c):
    out = []
    ab, ba = ctx.star(a, b), ctx.star(b, a)
    if ab != ba:
        out.append((ab, ba, "star not commutative"))
    lhs, rhs = ctx.star(ab, c), ctx.star(a, ctx.star(b, c))
    if lhs != rhs:
        out.append((lhs, rhs, "star not associative"))
    return out


def _d2(ctx, a):
    lhs = ctx.star(a, ctx.one)
    return [] if lhs == ctx.one else [(lhs, ctx.one, "a*1 != 1")]


def _d3(ctx, a, b):
    out = []
    lhs = ctx.star(a, ctx.res(a, b))
    if not ctx.le(b, lhs):
        out.append((lhs, b, "a*(a->b) < b"))
    rhs = ctx.res(b, ctx.star(a, b))
    if not ctx.le(rhs, a):
        out.append((a, rhs, "a < b->(a*b)"))
    return out


def _d4(ctx, a, b):
    left, right = ctx.le(b, a), ctx.res(a, b) == ctx.zero
    return [] if left == right else [(left, right, "a>=b iff a->b=0")]


def _d5(ctx, a, b, c):
    if not ctx.le(b, a):
        return []
    out = []
    if not ctx.le(ctx.star(b, c), ctx.star(a, c)):
        out.append((ctx.star(a, c), ctx.star(b, c), "star not monotone"))
    if not ctx.le(ctx.res(c, b), ctx.res(c, a)):
        out.append((ctx.res(c, a), ctx.res(c, b), "res not monotone in 2nd arg"))
    if not ctx.le(ctx.res(a, c), ctx.res(b, c)):
        out.append((ctx.res(b, c), ctx.res(a, c), "res not antitone in 1st arg"))
    return out


def _d6(ctx, a, b, c):
    lhs = ctx.star(ctx.meet(a, b), c)
    rhs = ctx.meet(ctx.star(a, c), ctx.star(b, c))
    return [] if lhs == rhs else [(lhs, rhs, "star does not distribute over inf")]


def _d7(ctx, a, b):
    out = []
    if not ctx.le(a, ctx.star(a, b)):
        out.append((ctx.star(a, b), a, "a*b < a"))
    if not ctx.le(ctx.res(b, a), a):
        out.append((a, ctx.res(b, a), "a < b->a"))
    return out


def _d8(ctx, a, b):
    lhs = ctx.meet(a, b)
    rhs = ctx.join(ctx.res(ctx.res(a, b), b), ctx.res(ctx.res(b, a), a))
    return [] if lhs == rhs else [(lhs, rhs, "inf identity fails")]


def _d9(ctx, a, b, c):
    lhs, rhs = ctx.res(a, b), ctx.res(ctx.res(b, c), ctx.res(a, c))
    return [] if ctx.le(rhs, lhs) else [(lhs, rhs, "(a->b) < ((b->c)->(a->c))")]


def _d10(ctx, a, b, c):
    lhs, rhs = ctx.star(ctx.res(a, b), ctx.res(b, c)), ctx.res(a, c)
    return [] if ctx.le(rhs, lhs) else [(lhs, rhs, "(a->b)*(b->c) < (a->c)")]


def _d11(ctx, a, b, c):
    lhs = ctx.res(a, ctx.res(b, c))
    rhs = ctx.res(ctx.star(a, b), c)
    return [] if lhs == rhs else [(lhs, rhs, "exchange fails")]


def _d12(ctx, a, b, c):
    lhs = ctx.res(a, ctx.res(b, c))
    rhs = ctx.res(b, ctx.res(a, c))
    return [] if lhs == rhs else [(lhs, rhs, "permutation fails")]


def _d13(ctx, a):
    lhs = ctx.res(a, a)
    return [] if lhs == ctx.zero else [(lhs, ctx.zero, "a->a != 0")]


def _d14(ctx, a, b, c):
    lhs, rhs = ctx.res(a, b), ctx.res(ctx.star(a, c), ctx.star(b, c))
    return [] if ctx.le(rhs, lhs) else [(lhs, rhs, "(a->b) < (a*c)->(b*c)")]


def _d15(ctx, a, b, c, d):
    lhs = ctx.star(ctx.res(a, b), ctx.res(c, d))
    rhs = ctx.res(ctx.star(a, c), ctx.star(b, d))
    return [] if ctx.le(rhs, lhs) else [(lhs, rhs, "(a->b)*(c->d) < (a*c)->(b*d)")]


D_LAWS: list[tuple[str, int, Callable]] = [
    ("D1", 3, _d1),
    ("D2", 1, _d2),
    ("D3", 2, _d3),
    ("D4", 2, _d4),
    ("D5", 3, _d5),
    ("D6", 3, _d6),
    ("D7", 2, _d7),
    ("D8", 2, _d8),
    ("D9", 3, _d9),
    ("D10", 3, _d10),
    ("D11", 3, _d11),
    ("D12", 3, _d12),
    ("D13", 1, _d13),
    ("D14", 3, _d14),
    ("D15", 4, _d15),
]


def run_law(ctx, law_id: str, arity: int, check: Callable) -> LawReport:
    """Exhaustive sweep of one law over all element tuples of its arity."""
    report = LawReport(law_id)
    elements = tuple(ctx.elements())
    for args in itertools.product(elements, repeat=arity):
        report.checked += 1
        for lhs, rhs, note in check(ctx, *args):
            report.register(
                Violation(law_id, tuple(ctx.fmt(a) for a in args), ctx.fmt(lhs), ctx.fmt(rhs), note)
            )
    return report


def run_catalogue(ctx, laws, ids=None) -> list[LawReport]:
    """Run a law catalogue, optionally restricted to a set of law ids."""
    wanted = None if ids is None else {i.upper() for i in ids}
    return [
        run_law(ctx, law_id, arity, check)
        for law_id, arity, check in laws
        if wanted is None or law_id in wanted
    ]


def check_signature_axioms(ctx: LawContext, bl: bool = False) -> list[LawReport]:
    """DBL1..DBL5 (lattice, monoid, adjunction, divisibility, prelinearity),
    exhaustively over the elements of ctx.

    With ``bl``, ctx is the order dual of a BL-algebra and the adjunction is
    swept in BL argument order: BL3 at (a, b, c) is DBL3 at (c, a, b).  The
    reports keep the DBL ids either way.
    """
    elements = tuple(ctx.elements())
    star, res, le, fmt, zero = ctx.star, ctx.res, ctx.le, ctx.fmt, ctx.zero
    pairs = tuple(itertools.product(elements, repeat=2))

    lattice = LawReport("DBL1")
    for a, b in pairs:
        lattice.checked += 1
        m, j = ctx.meet(a, b), ctx.join(a, b)
        if not (le(m, a) and le(m, b) and le(a, j) and le(b, j)):
            lattice.register(Violation("DBL1", (fmt(a), fmt(b)), fmt(m), fmt(j), "bounds fail"))
        if not (le(zero, a) and le(a, ctx.one)):
            lattice.register(Violation("DBL1", (fmt(a),), fmt(zero), fmt(ctx.one), "0/1 not extreme"))

    monoid = LawReport("DBL2")
    for a in elements:
        monoid.checked += 1
        if star(a, zero) != a:
            monoid.register(Violation("DBL2", (fmt(a),), fmt(star(a, zero)), fmt(a), "unit fails"))
    for a, b in pairs:
        monoid.checked += 1
        if star(a, b) != star(b, a):
            monoid.register(Violation("DBL2", (fmt(a), fmt(b)), fmt(star(a, b)), fmt(star(b, a)), "not commutative"))
    for a, b, c in itertools.product(elements, repeat=3):
        monoid.checked += 1
        lhs, rhs = star(star(a, b), c), star(a, star(b, c))
        if lhs != rhs:
            monoid.register(Violation("DBL2", (fmt(a), fmt(b), fmt(c)), fmt(lhs), fmt(rhs), "not associative"))

    adjunction = LawReport("DBL3")
    for a, b, c in itertools.product(elements, repeat=3):
        adjunction.checked += 1
        x, y, z = (c, a, b) if bl else (a, b, c)
        left, right = le(res(y, z), x), le(z, star(x, y))
        if left != right:
            adjunction.register(
                Violation("DBL3", (fmt(a), fmt(b), fmt(c)), left, right, "residuation biconditional fails")
            )

    divisibility = LawReport("DBL4")
    for a, b in pairs:
        divisibility.checked += 1
        lhs, rhs = ctx.join(a, b), star(a, res(a, b))
        if lhs != rhs:
            divisibility.register(Violation("DBL4", (fmt(a), fmt(b)), fmt(lhs), fmt(rhs)))

    prelinearity = LawReport("DBL5")
    for a, b in pairs:
        prelinearity.checked += 1
        got = ctx.meet(res(a, b), res(b, a))
        if got != zero:
            prelinearity.register(Violation("DBL5", (fmt(a), fmt(b)), fmt(got), fmt(zero)))

    return [lattice, monoid, adjunction, divisibility, prelinearity]


# Report ids and notes of the DBL form -> the BL wording of the same check.
_BL_IDS = {"DBL": "BL", "D": "B", "G": "L"}
_BL_NOTES = {
    "a*1 != 1": "a*0 != 0",
    "a*(a->b) < b": "a*(a->b) > b",
    "a < b->(a*b)": "a > b->(a*b)",
    "a>=b iff a->b=0": "a<=b iff a->b=1",
    "star does not distribute over inf": "star does not distribute over sup",
    "a*b < a": "a*b > a",
    "a < b->a": "a > b->a",
    "inf identity fails": "sup identity fails",
    "(a->b) < ((b->c)->(a->c))": "(a->b) > ((b->c)->(a->c))",
    "(a->b)*(b->c) < (a->c)": "(a->b)*(b->c) > (a->c)",
    "a->a != 0": "a->a != 1",
    "(a->b) < (a*c)->(b*c)": "(a->b) > (a*c)->(b*c)",
    "(a->b)*(c->d) < (a*c)->(b*d)": "(a->b)*(c->d) > (a*c)->(b*d)",
}


def as_bl(reports: list[LawReport]) -> list[LawReport]:
    """Rename, in place, reports of the DBL form run on the order dual of a
    BL-algebra to the BL reports they are: DBL -> BL, D -> B, G -> L."""
    for report in reports:
        head = report.law_id.rstrip("0123456789")
        report.law_id = _BL_IDS[head] + report.law_id[len(head):]
        report.witnesses = [
            replace(w, law_id=report.law_id, note=_BL_NOTES.get(w.note, w.note)) for w in report.witnesses
        ]
    return reports
