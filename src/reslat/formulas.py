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
non-associative.  Atoms match [a-z][a-zA-Z0-9_]*.  A formula nests at most
``_Parser.MAX_DEPTH`` levels deep: each parenthesis, prefix ``!`` and binary
operator counts one level on the path to an atom, and deeper input is a
positioned syntax error.

One walk, ``interpret``, gives every connective its meaning: it extends an
atom assignment homomorphically over 0, ``&`` and ``->`` and reads the sugar
by these definitions.  Desugaring, ``atoms``, and evaluation over a t-norm on
the unit interval or over the tables of a finite algebra all run through it.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import partial
from operator import itemgetter

from .errors import (
    DrasticNotResiduated,
    FormulaSyntaxError,
    UnbalancedParens,
    UnboundAtom,
    UnknownToken,
    cut,
)
from .norms import NormFamily, NormSide, apply_norm, residuum_form
from .reports import LawReport, Violation
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

    return run(f)


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

_ATOM = re.compile(r"[a-z][a-zA-Z0-9_]*")
_TOKEN_RE = re.compile(
    rf"(?P<ws>\s+)|(?P<atom>{_ATOM.pattern})|(?P<iff><->)|(?P<impl>->)"
    r"|(?P<zero>0)|(?P<one>1)|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<neg>!)|(?P<conj>&)|(?P<meet>\^)|(?P<join>\|)"
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind, self.text, self.line, self.column = kind, text, line, column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise UnknownToken(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        if kind == "ws":
            chunk = m.group()
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + chunk.rfind("\n") + 1
        else:
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    # Deepest syntax tree accepted.  Parsing one level costs up to five
    # interpreter frames (a parenthesis), printing two and ``interpret`` one,
    # so a formula at the limit stays well inside the default recursion
    # limit of 1000.
    MAX_DEPTH = 100

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.current
        self.pos += 1
        return tok

    def error(self, message: str, cls=FormulaSyntaxError):
        tok = self.current
        raise cls(message, tok.line, tok.column)

    def nest(self) -> None:
        """One level deeper, for the operator or parenthesis at the current token."""
        if self.depth == self.MAX_DEPTH:
            self.error(f"formula nested deeper than {self.MAX_DEPTH} levels")
        self.depth += 1

    def parse(self) -> Formula:
        f = self.implication()
        if self.current.kind == "rparen":
            self.error("unmatched closing parenthesis", UnbalancedParens)
        if self.current.kind != "eof":
            self.error(f"unexpected {self.current.text!r}")
        return f

    def implication(self) -> Formula:
        left = self.junction()
        if self.current.kind == "impl":
            self.nest()
            self.advance()
            right = self.implication()
            self.depth -= 1
            return Impl(left, right)
        if self.current.kind == "iff":
            self.nest()
            self.advance()
            right = self.junction()
            self.depth -= 1
            if self.current.kind in ("impl", "iff"):
                self.error("'<->' is non-associative; use parentheses")
            return Iff(left, right)
        return left

    # A left-associative chain of k operators is a tree k levels deep, so
    # each operator of a chain counts as one level until the chain ends.

    def junction(self) -> Formula:
        depth = self.depth
        left = self.conjunction()
        while self.current.kind in ("meet", "join"):
            self.nest()
            op = self.advance().kind
            right = self.conjunction()
            left = Meet(left, right) if op == "meet" else Join(left, right)
        self.depth = depth
        return left

    def conjunction(self) -> Formula:
        depth = self.depth
        left = self.unary()
        while self.current.kind == "conj":
            self.nest()
            self.advance()
            left = Conj(left, self.unary())
        self.depth = depth
        return left

    def unary(self) -> Formula:
        if self.current.kind == "neg":
            self.nest()
            self.advance()
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
            self.advance()
            inner = self.implication()
            if self.current.kind != "rparen":
                self.error("expected ')'", UnbalancedParens)
            self.advance()
            self.depth -= 1
            return inner
        if tok.kind == "eof":
            self.error("unexpected end of input")
        if tok.kind == "rparen":
            self.error("unmatched closing parenthesis", UnbalancedParens)
        self.error(f"unexpected {tok.text!r}")


def parse(text: str) -> Formula:
    """Parse formula text; errors carry 1-based line and column."""
    return _Parser(_tokenize(text)).parse()


_LEVEL = {Impl: 1, Iff: 1, Join: 2, Meet: 2, Conj: 3, Neg: 4, Atom: 5, Bottom: 5, Top: 5}


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
                return f"!{wrap(arg, 4)}"
            case Conj(l, r):
                return f"{wrap(l, 3)} & {wrap(r, 4)}"
            case Meet(l, r):
                return f"{wrap(l, 2)} ^ {wrap(r, 3)}"
            case Join(l, r):
                return f"{wrap(l, 2)} | {wrap(r, 3)}"
            case Impl(l, r):
                return f"{wrap(l, 2)} -> {wrap(r, 1)}"
            case Iff(l, r):
                return f"{wrap(l, 2)} <-> {wrap(r, 2)}"
        raise TypeError(f"not a formula: {node!r}")

    return render(f)


# -- evaluation ----------------------------------------------------------------

def evaluate(f: Formula, algebra, valuation):
    """Homomorphic extension of the atom assignment.

    ``algebra`` is either a non-drastic t-norm family (values are
    UnitValues) or a FiniteAlgebra (values are carrier labels).
    """
    return _evaluator(algebra)(f, valuation)


def _finite_context(algebra):
    """The DBL-form context of ``algebra`` if it is a FiniteAlgebra, else
    None.  A NormFamily is ruled out first, so evaluating over [0,1] never
    imports the finite layer."""
    if isinstance(algebra, NormFamily):
        return None
    from .finite import FiniteAlgebra, dbl_context

    return dbl_context(algebra) if isinstance(algebra, FiniteAlgebra) else None


def _evaluator(algebra):
    """The evaluator over ``algebra``: (formula, valuation) -> value.

    On a finite algebra, 0 is the element that absorbs ``&``: the bottom of
    a BL-algebra, the top of a DBL-algebra, ``one`` of the DBL form."""
    ctx = _finite_context(algebra)
    finite = ctx is not None
    if finite:
        read, operations = algebra.index, (ctx.one, lambda a, b: ctx.star[a][b], lambda a, b: ctx.res[a][b])
    else:
        if not isinstance(algebra, NormFamily):
            raise TypeError(f"unsupported algebra: {algebra!r}")
        if algebra.side is not NormSide.TNORM:
            raise ValueError("formula evaluation needs the t-norm side of a family")
        if not algebra.is_residuated:
            raise DrasticNotResiduated("cannot evaluate '->' over the drastic t-norm")
        operations = ZERO, partial(apply_norm, algebra), residuum_form(algebra)

        def read(value):
            return value if isinstance(value, UnitValue) else UnitValue(Fraction(value))

    def run(f, valuation):
        def atom(name):
            try:
                return read(valuation[name])
            except KeyError:
                raise UnboundAtom(f"atom {name!r} has no value") from None

        value = interpret(f, atom, *operations)
        return algebra.labels[value] if finite else value

    return run


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
    names, run = atoms(f), _evaluator(algebra)
    return {combo: run(f, dict(zip(names, combo))) for combo in itertools.product(domain, repeat=len(names))}


def check_prelinearity_tautology(algebra, g: GridSpec | None = None) -> LawReport:
    """(p -> q) | (q -> p) must evaluate to 1, the unit of ``&``, under every
    valuation: grid valuations for t-norm families, carrier valuations for
    finite algebras (there 1 is ``zero`` of the DBL form)."""
    formula = parse("(p -> q) | (q -> p)")
    ctx = _finite_context(algebra)
    if ctx is not None:
        domain = algebra.labels
        top = algebra.labels[ctx.zero]
    else:
        domain = (g or GridSpec()).points()
        top = ONE
    report = LawReport("prelinearity")
    for combo, value in sweep_values(formula, algebra, domain).items():
        report.checked += 1
        if value != top:
            report.register(Violation("prelinearity", combo, value, top))
    return report
