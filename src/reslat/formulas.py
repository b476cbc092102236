"""Propositional basic-logic formulas: parsing, printing, and evaluation.

Core connectives are bottom, strong conjunction ``&``, and implication
``->``; negation, lattice meet/join, equivalence, and top are sugar:

    !p       ==  p -> 0
    p ^ q    ==  p & (p -> q)
    p | q    ==  ((p -> q) -> q) ^ ((q -> p) -> p)
    p <-> q  ==  (p -> q) & (q -> p)
    1        ==  0 -> 0

Concrete syntax, tightest to loosest: ``!`` (prefix), ``&`` (left), ``^`` and
``|`` (one tier, left), ``->`` (right) with ``<->`` at the same tier but
non-associative; the tokenizer, parser and printer read it from one table,
``_BINARY``.  Atoms match [a-z][a-zA-Z0-9_]*.  A formula nests at most
``_Parser.MAX_DEPTH`` levels deep: each parenthesis, prefix ``!`` and binary
operator counts one level on the path to an atom, and deeper input is a
positioned syntax error.

One walk, ``interpret``, gives every connective its meaning: it extends an
atom assignment homomorphically over 0, ``&`` and ``->`` and reads the sugar
by these definitions.  Desugaring, ``atoms`` and evaluation run through it.
Evaluation walks once per prefix of all atoms but the last, each atom a row
of ids along the last atom's values, and ``&`` and ``->`` map whole rows: by
reslat.kernels over a t-norm family, by the DBL-form tables of a finite
algebra.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from fractions import Fraction
from functools import partial
from operator import getitem, itemgetter
from typing import Iterator

from .errors import (
    DrasticNotResiduated,
    FormulaSyntaxError,
    UnbalancedParens,
    UnboundAtom,
    UnknownToken,
    cut,
)
from .unitval import ONE, ZERO, GridSpec, UnitValue, parse_unit


class Formula(tuple):
    """An immutable formula node: the tagged tuple (type, *fields), fields named
    by ``__match_args__``; so nodes compare and hash by type and fields."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *fields):
        if len(fields) != len(cls.__match_args__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__match_args__)} fields, got {len(fields)}")
        return tuple.__new__(cls, (cls, *fields))

    def __getnewargs__(self):  # copy and pickle call __new__ with the fields
        return self[1:]

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self[1:]))
        return f"{type(self).__name__}({fields})"


class Atom(Formula):
    __slots__ = ()
    __match_args__ = ("name",)
    name = property(itemgetter(1))


class Bottom(Formula):
    __slots__ = ()


class Top(Formula):
    __slots__ = ()


class Neg(Formula):
    __slots__ = ()
    __match_args__ = ("arg",)
    arg = property(itemgetter(1))


class _Binary(Formula):
    __slots__ = ()
    __match_args__ = ("lhs", "rhs")
    lhs, rhs = property(itemgetter(1)), property(itemgetter(2))


class Conj(_Binary):
    __slots__ = ()


class Impl(_Binary):
    __slots__ = ()


class Meet(_Binary):
    __slots__ = ()


class Join(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


def interpret(f: Formula, atom, bottom, star, arrow):
    """The value of ``f`` where ``atom(name)`` is an atom's value, ``bottom``
    is 0's, and ``star`` and ``arrow`` are the operations of ``&`` and ``->``;
    the sugar is read by the module's definitions.  Each node is visited once,
    operands left to right, so ``atom`` meets the atoms in ``atoms`` order and
    a chain of k joins costs O(k) operations."""

    def run(node):
        match node:
            case Atom(name):
                return atom(name)
            case Bottom():
                return bottom
            case Conj(lhs, rhs):
                return star(run(lhs), run(rhs))
            case Impl(lhs, rhs):
                return arrow(run(lhs), run(rhs))
            case Top():
                return arrow(bottom, bottom)
            case Neg(arg):
                return arrow(run(arg), bottom)
            case Meet(lhs, rhs):
                a = run(lhs)
                return star(a, arrow(a, run(rhs)))
            case Join(lhs, rhs):
                a, b = run(lhs), run(rhs)
                x, y = arrow(arrow(a, b), b), arrow(arrow(b, a), a)
                return star(x, arrow(x, y))  # x ^ y
            case Iff(lhs, rhs):
                a, b = run(lhs), run(rhs)
                return star(arrow(a, b), arrow(b, a))
        raise TypeError(f"not a formula: {node!r}")

    value = run(f)
    del run  # run holds itself: without the cycle, the operations are freed on return
    return value


def desugar(f: Formula) -> Formula:
    """Lower sugar to the {atom, 0, &, ->} core; deterministic and idempotent.
    The core shares the lowered operands of each sugar node."""
    return interpret(f, Atom, Bottom(), Conj, Impl)


def atoms(f: Formula) -> tuple[str, ...]:
    """Atom names in first-occurrence order."""
    seen: dict[str, None] = {}
    interpret(f, seen.setdefault, None, _ignore, _ignore)
    return tuple(seen)


def _ignore(a, b):
    return None


# -- tokenizer / parser --------------------------------------------------------

# Each binary connective once, by token kind: its node, its symbol, its level
# (a higher level binds tighter; ``!`` binds tighter still) and how a chain of
# it groups: "left", "right", or None for a connective that does not chain.
_BINARY = {
    "conj": (Conj, "&", 3, "left"),
    "meet": (Meet, "^", 2, "left"),
    "join": (Join, "|", 2, "left"),
    "impl": (Impl, "->", 1, "right"),
    "iff": (Iff, "<->", 1, None),
}
_LEVEL = {node: level for node, _, level, _ in _BINARY.values()} | {Neg: 4, Atom: 5, Bottom: 5, Top: 5}
_TIGHTEST = _LEVEL[Neg] - 1  # the tightest binary level: its operands are prefix formulas

_ATOM = re.compile(r"[a-z][a-zA-Z0-9_]*")
_TOKEN_RE = re.compile(
    rf"(?P<ws>\s+)|(?P<atom>{_ATOM.pattern})|(?P<zero>0)|(?P<one>1)|(?P<lparen>\()|(?P<rparen>\))|(?P<neg>!)|"
    + "|".join(f"(?P<{kind}>{re.escape(symbol)})" for kind, (_, symbol, _, _) in _BINARY.items())
)


class _Token:
    __slots__ = ("kind", "text", "start")

    def __init__(self, kind: str, text: str, start: int):
        self.kind, self.text, self.start = kind, text, start


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> Iterator[_Token]:
    """The tokens of ``text``, then an ``eof`` token, each made only when the
    parser reads it.  An unknown character anywhere in the text is refused
    now, before any token, so it is reported before an earlier syntax error."""
    # The run of token matches from the start, made in C: it ends where a
    # character starts no token.
    last = deque(iter(_TOKEN_RE.scanner(text).match, None), maxlen=1)
    end = last[0].end() if last else 0
    if end < len(text):
        raise UnknownToken(f"unexpected character {text[end]!r}", *_position(text, end))
    return _tokens(text)


def _tokens(text: str) -> Iterator[_Token]:
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup != "ws":
            yield _Token(m.lastgroup, m.group(), m.start())
    yield _Token("eof", "", len(text))


class _Parser:
    # Deepest syntax tree accepted.  Parsing one level costs up to five
    # interpreter frames (a parenthesis: one chain per binary level, the
    # prefix and the primary), printing two and ``interpret`` one, so a
    # formula at the limit stays well inside the default recursion limit
    # of 1000.
    MAX_DEPTH = 100

    def __init__(self, text: str):
        self.text, self.next_token = text, _tokenize(text).__next__
        self.current = self.next_token()
        self.depth = 0

    def advance(self) -> None:
        self.current = self.next_token()

    def error(self, message: str, cls=FormulaSyntaxError):
        raise cls(message, *_position(self.text, self.current.start))

    def nest(self) -> None:
        """Step past the operator or parenthesis at the current token, one level deeper."""
        if self.depth == self.MAX_DEPTH:
            self.error(f"formula nested deeper than {self.MAX_DEPTH} levels")
        self.depth += 1
        self.advance()

    def unexpected(self):
        """Refuse the current token where an operand, or the end, should be."""
        kind = self.current.kind
        if kind == "eof":
            self.error("unexpected end of input")
        if kind == "rparen":
            self.error("unmatched closing parenthesis", UnbalancedParens)
        self.error(f"unexpected {self.current.text!r}")

    def parse(self) -> Formula:
        f = self.chain(1)
        if self.current.kind != "eof":
            self.unexpected()
        return f

    def connective(self, level: int):
        """The connective of ``level`` at the current token, or None."""
        entry = _BINARY.get(self.current.kind)
        return entry if entry is not None and entry[2] == level else None

    def chain(self, level: int) -> Formula:
        """Operands joined by the connectives of ``level``, grouped by the
        connective's associativity; an operand is a chain one level tighter,
        or at the tightest level a prefix formula.  A left-associative chain
        of k operators is a tree k levels deep, so each operator of a chain
        counts as one level until the chain ends."""
        depth = self.depth
        left = self.chain(level + 1) if level < _TIGHTEST else self.unary()
        while (entry := self.connective(level)) is not None:
            node, symbol, _, assoc = entry
            self.nest()
            if assoc == "right":  # the rest of the chain is the right operand
                left = node(left, self.chain(level))
                continue
            left = node(left, self.chain(level + 1) if level < _TIGHTEST else self.unary())
            if assoc is None and self.connective(level) is not None:
                self.error(f"{symbol!r} is non-associative; use parentheses")
        self.depth = depth
        return left

    def unary(self) -> Formula:
        if self.current.kind == "neg":
            self.nest()
            arg = self.unary()
            self.depth -= 1
            return Neg(arg)
        return self.primary()

    def primary(self) -> Formula:
        tok = self.current
        if tok.kind == "atom":
            self.advance()
            return Atom(tok.text)
        if tok.kind == "zero":
            self.advance()
            return Bottom()
        if tok.kind == "one":
            self.advance()
            return Top()
        if tok.kind == "lparen":
            self.nest()
            inner = self.chain(1)
            if self.current.kind != "rparen":
                self.error("expected ')'", UnbalancedParens)
            self.advance()
            self.depth -= 1
            return inner
        self.unexpected()


def parse(text: str) -> Formula:
    """Parse formula text; errors carry 1-based line and column."""
    return _Parser(text).parse()


_PRINT = {node: (symbol, level, assoc) for node, symbol, level, assoc in _BINARY.values()}


def to_text(f: Formula) -> str:
    """Minimal-parentheses rendering; parse(to_text(f)) == f."""

    def wrap(node, min_level):
        s = render(node)
        return f"({s})" if _LEVEL[type(node)] < min_level else s

    def render(node):
        match node:
            case Atom(name):
                return name
            case Bottom():
                return "0"
            case Top():
                return "1"
            case Neg(arg):
                return f"!{wrap(arg, _LEVEL[Neg])}"
            case _Binary(l, r) if type(node) in _PRINT:
                # An operand of the same level stays bare only on the side its chain groups.
                symbol, level, assoc = _PRINT[type(node)]
                return f"{wrap(l, level + (assoc != 'left'))} {symbol} {wrap(r, level + (assoc != 'right'))}"
        raise TypeError(f"not a formula: {node!r}")

    return render(f)


# -- evaluation ----------------------------------------------------------------

def evaluate(f: Formula, algebra, valuation):
    """Homomorphic extension of the atom assignment.

    ``algebra`` is either a non-drastic t-norm family (values are
    UnitValues) or a FiniteAlgebra (values are carrier labels).
    """
    read, bottom, _, star, arrow, show = _operations(algebra)
    domains = {}
    for name in atoms(f):
        if name not in valuation:
            raise UnboundAtom(f"atom {name!r} has no value")
        domains[name] = [read(valuation[name])]
    (value,) = _walk(f, domains, bottom, star, arrow)
    return show(value)


def _operations(algebra):
    """``(read, bottom, top, star, arrow, show)`` of ``algebra`` on ids: a
    value's id, the ids of 0 and 1, ``&`` and ``->`` of two rows of ids entry
    by entry, and an id's value.  A t-norm family's ids are a ValueTable's,
    whose engine maps rows on the closed forms; a finite algebra's are its
    carrier's, read in its DBL form, where 0 is ``one`` (it absorbs ``&``)
    and 1 is ``zero``.  Each backend imports only its own layer, and parsing
    a formula imports neither."""
    if _is_finite(algebra):
        from .finite import dbl_context

        ctx = dbl_context(algebra)
        row = lambda table: lambda xs, ys: list(map(getitem, map(table.__getitem__, xs), ys))
        return algebra.index, ctx.one, ctx.zero, row(ctx.star), row(ctx.res), algebra.labels.__getitem__
    from .kernels import NormFamily, NormSide, ValueTable, closed_form, residuum_form

    if not isinstance(algebra, NormFamily):
        raise TypeError(f"unsupported algebra: {algebra!r}")
    if algebra.side is not NormSide.TNORM:
        raise ValueError("formula evaluation needs the t-norm side of a family")
    if not algebra.is_residuated:
        raise DrasticNotResiduated("cannot evaluate '->' over the drastic t-norm")
    table = ValueTable(())
    read = lambda value: table.intern(value if isinstance(value, UnitValue) else UnitValue(Fraction(value)))
    star, arrow = partial(table.map, closed_form(algebra)), partial(table.map, residuum_form(algebra))
    return read, read(ZERO), read(ONE), star, arrow, table.values.__getitem__


def _is_finite(algebra) -> bool:
    """``isinstance(algebra, FiniteAlgebra)``, read from the names of its
    type's classes, so that telling the backends apart imports neither layer."""
    return any((c.__module__, c.__qualname__) == ("reslat.finite", "FiniteAlgebra") for c in type(algebra).__mro__)


def _walk(f: Formula, domains: dict, bottom, star, arrow):
    """The ids of ``f``, in itertools.product order, as each atom runs over its
    ids in ``domains`` (in ``atoms`` order): one walk per prefix, on rows."""
    *head, last = domains.values() or [[None]]  # no atoms: one valuation
    n = len(last)
    for prefix in itertools.product(*head):
        rows = dict(zip(domains, [[i] * n for i in prefix] + [last]))
        yield from interpret(f, rows.__getitem__, [bottom] * n, star, arrow)


def parse_valuation(text: str, finite: bool = False) -> dict:
    """Valuation text: comma- or newline-separated ``atom = value`` entries.

    Values are rationals (``p/q`` or finite decimals) for unit-interval
    evaluation, or carrier labels when ``finite`` is set.  An entry whose
    name is not an atom, and an atom given twice, are refused with ValueError.
    """
    assignment: dict = {}
    entries = [e for chunk in text.splitlines() for e in chunk.split(",")]
    for entry in entries:
        entry = entry.strip()
        if not entry or entry.startswith("#"):
            continue
        if "=" not in entry:
            raise ValueError(f"valuation entry {cut(repr(entry))} is not 'atom = value'")
        name, _, value = entry.partition("=")
        name, value = name.strip(), value.strip()
        if not _ATOM.fullmatch(name):
            raise ValueError(f"valuation entry {cut(repr(entry))} does not name an atom")
        if name in assignment:
            raise ValueError(f"atom {cut(repr(name))} is assigned more than once")
        assignment[name] = value if finite else parse_unit(value)
    return assignment


def sweep_values(f: Formula, algebra, domain) -> dict:
    """Evaluate over every total valuation with values from ``domain``;
    returns {valuation tuple: value} with deterministic ordering."""
    read, bottom, _, star, arrow, show = _operations(algebra)
    names = atoms(f)
    values = _walk(f, dict.fromkeys(names, list(map(read, domain))), bottom, star, arrow)
    return dict(zip(itertools.product(domain, repeat=len(names)), map(show, values)))


def check_prelinearity_tautology(algebra, g: GridSpec | None = None) -> LawReport:
    """(p -> q) | (q -> p) must evaluate to 1, the unit of ``&``, under every
    valuation: grid valuations for t-norm families, carrier valuations for
    finite algebras (there 1 is ``zero`` of the DBL form)."""
    from .reports import LawReport

    read, bottom, top, star, arrow, show = _operations(algebra)
    domain = algebra.labels if _is_finite(algebra) else (g or GridSpec()).points()
    n = len(domain)
    report = LawReport("prelinearity", n * n)
    values = _walk(parse("(p -> q) | (q -> p)"), dict.fromkeys("pq", list(map(read, domain))), bottom, star, arrow)
    report.register_row(values, itertools.repeat(top), lambda k: (domain[k // n], domain[k % n]), show)
    return report
