"""One law catalogue for residuated structures, checked by brute force.

Every law is written once, in the DBL form (monoid unit 0, residuum
reversed): the fifteen derived D-laws and the five signature axioms
DBL1..DBL5.  The BL side is their order dual.  Reversing the order of a
BL-algebra, and keeping its tables, gives a DBL-algebra; a BL law holds at a
tuple exactly when its D form holds there on the dual, with the same two
sides.  So a BL-algebra is checked by running the DBL form on its order dual
and renaming the reports with :func:`as_bl` (B1..B15, BL1..BL5), which also
rewords the notes that name the order or a constant.

Laws are data, written against a :class:`LawContext` of tables, so the
same definitions run over unit-interval grids and over finite algebras.  A
term is a variable (``a``..``d``, indices into the tuple), ``ZERO`` or
``ONE``, or ``(op, term, term)`` with ``op`` one of the context's tables or
``"eq"``.  A clause ``(lhs, rel, rhs, note)`` holds at a tuple where
``lhs == rhs`` (rel ``"="``) or ``le[rhs][lhs]`` (rel ``">="``); where it
fails, the tuple, both sides and the note are a witness.  DBL1..DBL5 and
D1..D15 are clause lists, all swept by :func:`_sweep`, and one runner,
:func:`run_catalogue`, fills every law report.
"""

from __future__ import annotations

import itertools
from functools import partial
from itertools import repeat
from operator import eq, getitem, itemgetter

from .reports import LawReport, Violation


class LazyTable(dict):
    """``fn`` of one argument as a dict: a missing entry is computed when first read, and kept."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def lazy_table(fn) -> LazyTable:
    """``fn`` as a table, ``t[x][y] == fn(x, y)``, filled as it is read: the law layer's one memo."""
    return LazyTable(lambda x: LazyTable(partial(fn, x)))


class LawContext:
    """A structure in the DBL form, as tables indexed by its elements; a
    function ``fn(a, b)`` given for a table is wrapped once as a :func:`lazy_table`.

    elements()   deterministic iteration order (fixes witness order)
    star, res    the monoid operation and the residuum, ``star[a][b]``
    meet / join  lattice inf / sup
    le           the lattice order, ``le[a][b]``
    zero / one   bottom and top constants (zero is the monoid unit)
    fmt(v)       element rendering for witnesses
    """

    __slots__ = ("elements", "star", "res", "meet", "join", "le", "zero", "one", "fmt")

    def __init__(self, elements, star, res, meet, join, le, zero, one, fmt):
        star, res, meet, join, le = (lazy_table(t) if callable(t) else t for t in (star, res, meet, join, le))
        self.elements, self.star, self.res, self.meet, self.join = elements, star, res, meet, join
        self.le, self.zero, self.one, self.fmt = le, zero, one, fmt


# -- terms and clauses --------------------------------------------------------

a, b, c, d = range(4)
ZERO, ONE = "zero", "one"
S, R, M, J, LE, EQ = ((lambda x, y, op=op: (op, x, y)) for op in ("star", "res", "meet", "join", "le", "eq"))

# (law id, arity, guard, clauses): the law holds at a tuple where the guard
# term is false or every clause holds.
D_LAWS: list[tuple[str, int, object, tuple]] = [
    ("D1", 3, None, (
        (S(a, b), "=", S(b, a), "star not commutative"),
        (S(S(a, b), c), "=", S(a, S(b, c)), "star not associative"),
    )),
    ("D2", 1, None, ((S(a, ONE), "=", ONE, "a*1 != 1"),)),
    ("D3", 2, None, (
        (S(a, R(a, b)), ">=", b, "a*(a->b) < b"),
        (a, ">=", R(b, S(a, b)), "a < b->(a*b)"),
    )),
    ("D4", 2, None, ((LE(b, a), "=", EQ(R(a, b), ZERO), "a>=b iff a->b=0"),)),
    ("D5", 3, LE(b, a), (
        (S(a, c), ">=", S(b, c), "star not monotone"),
        (R(c, a), ">=", R(c, b), "res not monotone in 2nd arg"),
        (R(b, c), ">=", R(a, c), "res not antitone in 1st arg"),
    )),
    ("D6", 3, None, ((S(M(a, b), c), "=", M(S(a, c), S(b, c)), "star does not distribute over inf"),)),
    ("D7", 2, None, (
        (S(a, b), ">=", a, "a*b < a"),
        (a, ">=", R(b, a), "a < b->a"),
    )),
    ("D8", 2, None, ((M(a, b), "=", J(R(R(a, b), b), R(R(b, a), a)), "inf identity fails"),)),
    ("D9", 3, None, ((R(a, b), ">=", R(R(b, c), R(a, c)), "(a->b) < ((b->c)->(a->c))"),)),
    ("D10", 3, None, ((S(R(a, b), R(b, c)), ">=", R(a, c), "(a->b)*(b->c) < (a->c)"),)),
    ("D11", 3, None, ((R(a, R(b, c)), "=", R(S(a, b), c), "exchange fails"),)),
    ("D12", 3, None, ((R(a, R(b, c)), "=", R(b, R(a, c)), "permutation fails"),)),
    ("D13", 1, None, ((R(a, a), "=", ZERO, "a->a != 0"),)),
    ("D14", 3, None, ((R(a, b), ">=", R(S(a, c), S(b, c)), "(a->b) < (a*c)->(b*c)"),)),
    ("D15", 4, None, ((S(R(a, b), R(c, d)), ">=", R(S(a, c), S(b, d)), "(a->b)*(c->d) < (a*c)->(b*d)"),)),
]


def _axioms(x, y, z):
    """DBL2..DBL5 in the D_LAWS form, with the adjunction at (x, y, z).  The
    monoid axiom is three entries, unit, commutativity and associativity,
    that fill one report."""
    return [
        ("DBL2", 1, None, ((S(a, ZERO), "=", a, "unit fails"),)),
        ("DBL2", 2, None, ((S(a, b), "=", S(b, a), "not commutative"),)),
        ("DBL2", 3, None, ((S(S(a, b), c), "=", S(a, S(b, c)), "not associative"),)),
        ("DBL3", 3, None, ((LE(R(y, z), x), "=", LE(z, S(x, y)), "residuation biconditional fails"),)),
        ("DBL4", 2, None, ((J(a, b), "=", S(a, R(a, b)), ""),)),
        ("DBL5", 2, None, ((M(R(a, b), R(b, a)), "=", ZERO, ""),)),
    ]


# Keyed by ``bl``: BL3 at (a, b, c) is DBL3 at (c, a, b).
_AXIOMS = {False: _axioms(a, b, c), True: _axioms(c, a, b)}

# DBL1: meet and join bound both arguments, and 0 and 1 are extreme.
_LATTICE = ("DBL1", 2, None, (
    (a, ">=", M(a, b), "bounds fail"), (b, ">=", M(a, b), "bounds fail"),
    (J(a, b), ">=", a, "bounds fail"), (J(a, b), ">=", b, "bounds fail"),
    (a, ">=", ZERO, "0/1 not extreme"), (ONE, ">=", a, "0/1 not extreme"),
))


# -- the sweep ------------------------------------------------------------------


def _compile(ctx, term, last: int, elements: tuple):
    """``(fn, is_row)``: ``fn(prefix)`` is the term's value at the values of
    the variables before ``last``, or, where the term reads ``last``, an
    iterator of its values along ``elements``, read from the tables in C."""
    if isinstance(term, int):
        return ((lambda prefix: elements), True) if term == last else (itemgetter(term), False)
    if isinstance(term, str):
        value = getattr(ctx, term)
        return (lambda prefix: value), False
    op, x, y, n = *term, len(elements)
    (fx, x_row), (fy, y_row) = _compile(ctx, x, last, elements), _compile(ctx, y, last, elements)
    if op == "eq":
        xs, ys = _along(fx, x_row, n), _along(fy, y_row, n)
        return ((lambda p: map(eq, xs(p), ys(p))), True) if x_row or y_row else ((lambda p: fx(p) == fy(p)), False)
    table = getattr(ctx, op)
    if x_row:
        rows, ys = table.__getitem__, _along(fy, y_row, n)
        return (lambda p: map(getitem, map(rows, fx(p)), ys(p))), True
    if y_row:
        return (lambda p: map(table[fx(p)].__getitem__, fy(p))), True
    return (lambda p: table[fx(p)][fy(p)]), False


def _along(fn, is_row: bool, n: int):
    """A compiled term along the row: a scalar repeated once per element."""
    return fn if is_row else (lambda p: repeat(fn(p), n))


def _sweep(ctx, report: LawReport, arity: int, guard, clauses) -> LawReport:
    """Check ``clauses`` at every ``arity``-tuple of elements, where ``guard``
    holds, into ``report``.

    For each prefix of all variables but the last, in itertools.product
    order, every clause is evaluated along the whole row of the last
    variable.  A prefix where some clause fails is walked again a tuple at a
    time, clause by clause, so the witnesses come in the order of a
    tuple-at-a-time sweep.
    """
    elements = tuple(ctx.elements())
    last, fmt, n = arity - 1, ctx.fmt, len(elements)
    report.checked += n**arity
    row = lambda term: _along(*_compile(ctx, term, last, elements), n)
    # holds(rhs, lhs) along a row: "=" is symmetric, and ">=" is le[rhs][lhs].
    relations = {"=": partial(map, eq), ">=": lambda rhs, lhs: map(getitem, map(ctx.le.__getitem__, rhs), lhs)}
    compiled = [(row(lhs), relations[rel], row(rhs), note) for lhs, rel, rhs, note in clauses]
    if guard is not None:
        guard, guard_row = _compile(ctx, guard, last, elements)
        if guard_row:
            raise ValueError("a guard may read only the variables before the last")
    for prefix in itertools.product(elements, repeat=last):
        if guard is not None and not guard(prefix):
            continue
        for lhs, holds, rhs, _ in compiled:
            if not all(holds(rhs(prefix), lhs(prefix))):
                break
        else:
            continue
        rows = [(list(lhs(prefix)), holds, list(rhs(prefix)), note) for lhs, holds, rhs, note in compiled]
        for k, x in enumerate(elements):
            for lhs, holds, rhs, note in rows:
                if not all(holds((rhs[k],), (lhs[k],))):
                    args = tuple(map(fmt, prefix + (x,)))
                    report.register(Violation(report.law_id, args, fmt(lhs[k]), fmt(rhs[k]), note))
    return report


def run_catalogue(ctx, laws, ids=None) -> list[LawReport]:
    """Run a law catalogue in order, optionally restricted to a set of law
    ids, into one report per id; an id the catalogue does not hold is refused."""
    known = {law[0] for law in laws}
    wanted = known if ids is None else {i.upper() for i in ids}
    if wanted - known:
        raise ValueError(f"no such law in the catalogue: {', '.join(sorted(wanted - known))}")
    reports = {}
    for law_id, arity, guard, clauses in laws:
        if law_id in wanted:
            _sweep(ctx, reports.setdefault(law_id, LawReport(law_id)), arity, guard, clauses)
    return list(reports.values())


def check_signature_axioms(ctx: LawContext, bl: bool = False) -> list[LawReport]:
    """DBL1..DBL5 (lattice, monoid, adjunction, divisibility, prelinearity),
    exhaustively over the elements of ctx.

    With ``bl``, ctx is the order dual of a BL-algebra and the adjunction is
    swept in BL argument order: BL3 at (a, b, c) is DBL3 at (c, a, b).  The
    reports keep the DBL ids either way.
    """
    return run_catalogue(ctx, [_LATTICE, *_AXIOMS[bl]])


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
            Violation(report.law_id, w.args, w.lhs, w.rhs, _BL_NOTES.get(w.note, w.note)) for w in report.witnesses
        ]
    return reports
