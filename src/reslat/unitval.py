"""Exact rational values on the unit interval and finite sampling grids.

Every quantity in the core is a :class:`UnitValue`, a `Fraction` restricted
to [0, 1].  No floating point is ever involved, so all law checks are exact
equality/inequality tests.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd


class UnitValue(Fraction):
    """An exact rational number in [0, 1].

    Construction rejects anything outside the interval and refuses floats
    (which would smuggle rounding into the core).  Inherited Fraction
    arithmetic returns plain Fractions; use :meth:`add_clamped` and
    :meth:`sub_clamped` for the truncated operations that stay inside
    the interval.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        # Two ints with a positive denominator, as the closed forms build
        # them: one gcd and the range test, without Fraction's type dispatch.
        # Anything else, and every refusal, takes the general path below.
        if type(numerator) is int and type(denominator) is int and denominator > 0:
            g = gcd(numerator, denominator)
            if g > 1:
                numerator //= g
                denominator //= g
            if 0 <= numerator <= denominator:
                self = object.__new__(cls)
                self._numerator, self._denominator = numerator, denominator
                return self
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("UnitValue does not accept floats; use a string or Fraction")
        self = super().__new__(cls, numerator, denominator)
        # Normalised: the denominator is positive, so compare the ints directly.
        if self._numerator < 0 or self._numerator > self._denominator:
            check_digits(self, "value outside [0, 1]")
            raise ValueError(f"value {Fraction(self)} outside [0, 1]")
        return self

    def add_clamped(self, other) -> "UnitValue":
        """min(1, self + other), exact."""
        total = self + Fraction(other)
        return UnitValue(total if total <= 1 else 1)

    def sub_clamped(self, other) -> "UnitValue":
        """max(0, self - other), exact."""
        diff = self - Fraction(other)
        return UnitValue(diff if diff >= 0 else 0)

    def complement(self) -> "UnitValue":
        """1 - self."""
        return UnitValue(1 - self)

    def divide(self, other) -> "UnitValue":
        """self / other; requires other != 0 and a quotient inside [0, 1]."""
        return UnitValue(self / Fraction(other))

    def __repr__(self) -> str:
        return f"UnitValue({self})"


ZERO = UnitValue(0)
ONE = UnitValue(1)


# The interpreter's default int/str digit limit: a number with more decimal
# digits can be neither read from text nor printed.  It also bounds decimal
# exponents in magnitude: Fraction('1e-N') builds 10**N, so an unbounded
# exponent costs unbounded time and memory before any range check can refuse
# the value.
MAX_DIGITS = MAX_EXPONENT = 4300
_LONG = 10**MAX_DIGITS  # the least number with more than MAX_DIGITS digits
_EXPONENT = re.compile(r"e[-+]?([0-9_]+)\Z", re.IGNORECASE)
_DIGIT_RUN = re.compile(r"[0-9_]+")


def check_digits(value: Fraction, what: str) -> Fraction:
    """Refuse with ValueError a value whose numerator or denominator has more
    than MAX_DIGITS digits, naming it as ``what``."""
    for part in ("numerator", "denominator"):
        if abs(getattr(value, part)) >= _LONG:
            raise ValueError(f"{what} has a {part} of more than {MAX_DIGITS} digits")
    return value


def parse_unit(text: str) -> UnitValue:
    """Parse 'p/q', an integer, or a finite decimal as an exact UnitValue.

    Other text is refused with ValueError, and so are a decimal exponent
    beyond MAX_EXPONENT in magnitude and a number written with more than
    MAX_DIGITS digits, before any digits are expanded.
    """
    text = text.strip()
    match = _EXPONENT.search(text)
    if match:
        digits = match.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise ValueError(f"decimal exponent exceeds {MAX_EXPONENT} in magnitude")
    if any(len(run.replace("_", "")) > MAX_DIGITS for run in _DIGIT_RUN.findall(text)):
        raise ValueError(f"input value has a number of more than {MAX_DIGITS} digits")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a number") from None
    return UnitValue(value)


def format_unit(value: Fraction, approx: bool = False) -> str:
    """Render a rational as 'p/q'; with approx, append a decimal rendering."""
    base = str(value)
    if approx:
        return f"{base} ({float(value):.6g})"
    return base


@lru_cache(maxsize=None)
def _grid_points(denominator: int) -> tuple[UnitValue, ...]:
    return tuple(UnitValue(k, denominator) for k in range(denominator + 1))


class GridSpec:
    """Uniform sampling grid {k/denominator : 0 <= k <= denominator}."""

    __slots__ = ("denominator",)

    def __init__(self, denominator: int = 64):
        if denominator < 2:
            raise ValueError("grid denominator must be >= 2")
        self.denominator = denominator

    def __eq__(self, other) -> bool:
        return type(other) is GridSpec and other.denominator == self.denominator

    def __hash__(self) -> int:
        return hash(self.denominator)

    def points(self) -> tuple[UnitValue, ...]:
        return _grid_points(self.denominator)

    def __len__(self) -> int:
        return self.denominator + 1
