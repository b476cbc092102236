"""Propositional basic-logic formulas: parsing, printing, and evaluation.

Core connectives are bottom, strong conjunction ``&``, and implication
``->``; negation, lattice meet/join, equivalence, and top are sugar that
desugars deterministically before evaluation:

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

Evaluation extends an atom assignment homomorphically: e(0) = 0,
e(p & q) = e(p) * e(q), e(p -> q) = e(p) -> e(q), either over a t-norm on
the unit interval or over the tables of a finite algebra.
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


def desugar(f: Formula) -> Formula:
    """Lower sugar to the {atom, 0, &, ->} core; deterministic and idempotent."""
    match f:
        case Atom() | Bottom():
            return f
        case Top():
            return Impl(Bottom(), Bottom())
        case Conj(lhs, rhs):
            return Conj(desugar(lhs), desugar(rhs))
        case Impl(lhs, rhs):
            return Impl(desugar(lhs), desugar(rhs))
        case Neg(arg):
            return Impl(desugar(arg), Bottom())
        case Meet(lhs, rhs):
            a, b = desugar(lhs), desugar(rhs)
            return Conj(a, Impl(a, b))
        case Join(lhs, rhs):
            a, b = desugar(lhs), desugar(rhs)
            x, y = Impl(Impl(a, b), b), Impl(Impl(b, a), a)
            return Conj(x, Impl(x, y))  # the Meet case on operands already lowered
        case Iff(lhs, rhs):
            a, b = desugar(lhs), desugar(rhs)
            return Conj(Impl(a, b), Impl(b, a))
    raise TypeError(f"not a formula: {f!r}")


def atoms(f: Formula) -> tuple[str, ...]:
    """Atom names in first-occurrence order."""
    seen: dict[str, None] = {}

    def walk(node):
        match node:
            case Atom(name):
                seen.setdefault(name, None)
            case Neg(arg):
                walk(arg)
            case _Binary(l, r):
                walk(l)
                walk(r)

    walk(f)
    return tuple(seen)


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
    # interpreter frames (a parenthesis), and printing, desugaring and
    # evaluating recurse once or twice per level, so a formula at the limit
    # stays well inside the default recursion limit of 1000.
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
    return _evaluator(algebra)(desugar(f), valuation)


def _is_finite(algebra) -> bool:
    """Whether ``algebra`` is a FiniteAlgebra.  A NormFamily is ruled out
    first, so evaluating over [0,1] never imports the finite layer."""
    if isinstance(algebra, NormFamily):
        return False
    from .finite import FiniteAlgebra

    return isinstance(algebra, FiniteAlgebra)


def _evaluator(algebra):
    """The evaluator of core formulas over ``algebra``: (core, valuation) -> value."""
    if _is_finite(algebra):
        return lambda core, valuation: algebra.labels[
            _evaluate_core(core, lambda name: algebra.index(valuation[name]), algebra.bottom, algebra.star, algebra.arrow)
        ]
    if not isinstance(algebra, NormFamily):
        raise TypeError(f"unsupported algebra: {algebra!r}")
    if algebra.side is not NormSide.TNORM:
        raise ValueError("formula evaluation needs the t-norm side of a family")
    if not algebra.is_residuated:
        raise DrasticNotResiduated("cannot evaluate '->' over the drastic t-norm")

    def atom(valuation, name):
        value = valuation[name]
        return value if isinstance(value, UnitValue) else UnitValue(Fraction(value))

    star, arrow = partial(apply_norm, algebra), residuum_form(algebra)
    return lambda core, valuation: _evaluate_core(core, partial(atom, valuation), ZERO, star, arrow)


def _evaluate_core(f: Formula, atom, bottom, star, arrow):
    """Evaluate a core formula once per node object.  ``desugar`` shares
    subterms, so the core is a DAG that a tree walk would visit exponentially
    often on join chains; the memo is keyed by node identity because
    hashing a node walks its whole subtree."""
    memo: dict[int, object] = {}

    def run(node):
        key = id(node)
        if key in memo:
            return memo[key]
        match node:
            case Atom(name):
                try:
                    value = atom(name)
                except KeyError:
                    raise UnboundAtom(f"atom {name!r} has no value") from None
            case Bottom():
                value = bottom
            case Conj(l, r):
                value = star(run(l), run(r))
            case Impl(l, r):
                value = arrow(run(l), run(r))
            case _:
                raise TypeError(f"non-core formula after desugaring: {node!r}")
        memo[key] = value
        return value

    return run(f)


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
            raise ValueError(f"valuation entry {entry!r} is not 'atom = value'")
        name, _, value = entry.partition("=")
        name, value = name.strip(), value.strip()
        if not _ATOM.fullmatch(name):
            raise ValueError(f"valuation entry {entry!r} does not name an atom")
        if name in assignment:
            raise ValueError(f"atom {name!r} is assigned more than once")
        assignment[name] = value if finite else parse_unit(value)
    return assignment


def sweep_values(f: Formula, algebra, domain) -> dict:
    """Evaluate over every total valuation with values from ``domain``;
    returns {valuation tuple: value} with deterministic ordering."""
    names = atoms(f)
    core, run = desugar(f), _evaluator(algebra)
    return {combo: run(core, dict(zip(names, combo))) for combo in itertools.product(domain, repeat=len(names))}


def check_prelinearity_tautology(algebra, g: GridSpec | None = None) -> LawReport:
    """(p -> q) | (q -> p) must evaluate to the top value under every
    valuation: grid valuations for t-norm families, carrier valuations for
    finite algebras."""
    formula = parse("(p -> q) | (q -> p)")
    if _is_finite(algebra):
        domain = algebra.labels
        top = algebra.labels[algebra.top]
    else:
        domain = (g or GridSpec()).points()
        top = ONE
    report = LawReport("prelinearity")
    for combo, value in sweep_values(formula, algebra, domain).items():
        report.checked += 1
        if value != top:
            report.register(Violation("prelinearity", combo, value, top))
    return report
