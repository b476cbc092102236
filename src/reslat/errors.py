"""Exception hierarchy shared across the package."""


def cut(text: str) -> str:
    """``text`` as an error message echoes it: up to 60 characters, then an ellipsis."""
    return text if len(text) <= 60 else text[:60] + "…"


class ReslatError(Exception):
    """Base class for all errors raised by this package."""


class DrasticNotResiduated(ReslatError):
    """The drastic norms are not continuous, so they have no residuum."""


class InvalidRadius(ReslatError):
    """Unit-interval ball radius must lie in (0, 1]."""


class InadmissibleRadius(ReslatError):
    """Ball radius on a finite algebra must be an admissible element."""


class CarrierTooLarge(ReslatError):
    """Carrier exceeds the largest size the topology listing accepts."""


class AlgebraFileError(ReslatError):
    """Base class for algebra-file loading problems."""


class ParseError(AlgebraFileError):
    """Malformed algebra document (bad syntax, missing fields, unknown labels)."""


class NotAPartialOrder(AlgebraFileError):
    """The declared leq relation violates a partial-order axiom."""


class NotALattice(AlgebraFileError):
    """A meet or join is missing, non-unique, or bottom/top are wrong."""


class TableOutOfRange(AlgebraFileError):
    """A monoid or residuum table entry is not a carrier element."""


class TheoremViolation(ReslatError):
    """An executable theorem failed; indicates a bug or an invalid structure."""


class FormulaSyntaxError(ReslatError):
    """Formula text could not be parsed; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnbalancedParens(FormulaSyntaxError):
    pass


class UnknownToken(FormulaSyntaxError):
    pass


class UnboundAtom(ReslatError):
    """A formula atom has no value in the supplied valuation."""
