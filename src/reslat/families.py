"""Norm families on the unit interval: their closed forms and residua.

The four classic families are exact closed forms over rationals:
Lukasiewicz, Goedel, product, and drastic.  Each family exists in a t-norm
and an s-norm flavour, dual to each other via ``S(x, y) = 1 - T(1 - x, 1 - y)``.
Every form is written once, as an integer kernel; reslat.norms checks the
laws of these forms, and re-exports the public names defined here.

The drastic pair is supported as a bare norm only: it is not continuous, so
requesting its residuum raises :class:`DrasticNotResiduated`.

Note on the drastic s-norm: its standard definition returns 1 when both
arguments are nonzero (the value printed in some sources as 0 breaks
associativity and the duality identity, and is treated here as a typo).
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import itemgetter

from .errors import DrasticNotResiduated
from .unitval import UnitValue


class NormKind(Enum):
    LUKASIEWICZ = "lukasiewicz"
    GOEDEL = "goedel"
    PRODUCT = "product"
    DRASTIC = "drastic"


class NormSide(Enum):
    TNORM = "t"
    SNORM = "s"


class NormFamily(tuple):
    """A norm family on one side, as the pair (kind, side): a cache key."""

    __slots__ = ()

    def __new__(cls, kind: NormKind, side: NormSide):
        return tuple.__new__(cls, (kind, side))

    def __getnewargs__(self):  # copy and pickle call __new__ with the fields
        return tuple(self)

    kind, side = property(itemgetter(0)), property(itemgetter(1))

    @classmethod
    def t_norm(cls, kind: NormKind) -> "NormFamily":
        return cls(kind, NormSide.TNORM)

    @classmethod
    def s_norm(cls, kind: NormKind) -> "NormFamily":
        return cls(kind, NormSide.SNORM)

    @classmethod
    def from_name(cls, name: str, side: NormSide) -> "NormFamily":
        try:
            return cls(NormKind(name.strip().lower()), side)
        except ValueError:
            valid = ", ".join(k.value for k in NormKind)
            raise ValueError(f"unknown norm family {name!r} (expected one of: {valid})") from None

    @property
    def is_residuated(self) -> bool:
        return self.kind is not NormKind.DRASTIC

    def describe(self) -> str:
        return f"{self.kind.value} {'t-norm' if self.side is NormSide.TNORM else 's-norm'}"


# Every closed form and residuum is written once, as an integer kernel on
# the arguments' numerators and denominators, x = a/b and y = c/d with b, d > 0:
# ``kernel(a, b, c, d)`` returns the result as a (numerator, denominator)
# pair, not necessarily reduced.  Comparisons cross-multiply: x <= y iff
# a*d <= c*b.
_NORM_KERNELS = {
    (NormKind.LUKASIEWICZ, NormSide.TNORM): lambda a, b, c, d: (  # max(0, x + y - 1)
        (a * d + c * b - b * d, b * d) if a * d + c * b > b * d else (0, 1)
    ),
    (NormKind.LUKASIEWICZ, NormSide.SNORM): lambda a, b, c, d: (  # min(1, x + y)
        (a * d + c * b, b * d) if a * d + c * b < b * d else (1, 1)
    ),
    (NormKind.GOEDEL, NormSide.TNORM): lambda a, b, c, d: (a, b) if a * d <= c * b else (c, d),  # min
    (NormKind.GOEDEL, NormSide.SNORM): lambda a, b, c, d: (c, d) if a * d <= c * b else (a, b),  # max
    (NormKind.PRODUCT, NormSide.TNORM): lambda a, b, c, d: (a * c, b * d),  # xy
    (NormKind.PRODUCT, NormSide.SNORM): lambda a, b, c, d: (a * d + c * b - a * c, b * d),  # x + y - xy
    # min(x, y) if max(x, y) == 1 else 0
    (NormKind.DRASTIC, NormSide.TNORM): lambda a, b, c, d: (c, d) if a == b else (a, b) if c == d else (0, 1),
    # max(x, y) if min(x, y) == 0 else 1
    (NormKind.DRASTIC, NormSide.SNORM): lambda a, b, c, d: (c, d) if a == 0 else (a, b) if c == 0 else (1, 1),
}

_RESIDUUM_KERNELS = {
    # s-norm side: 0 where x >= y, else y - x, y, (y - x) / (1 - x).
    (NormKind.LUKASIEWICZ, NormSide.SNORM): lambda a, b, c, d: (c * b - a * d, b * d) if a * d < c * b else (0, 1),
    (NormKind.GOEDEL, NormSide.SNORM): lambda a, b, c, d: (c, d) if a * d < c * b else (0, 1),
    (NormKind.PRODUCT, NormSide.SNORM): lambda a, b, c, d: (c * b - a * d, d * (b - a)) if a * d < c * b else (0, 1),
    # t-norm side: 1 where x <= y, else 1 - x + y, y, y / x.
    (NormKind.LUKASIEWICZ, NormSide.TNORM): lambda a, b, c, d: (
        (b * d - a * d + c * b, b * d) if a * d > c * b else (1, 1)
    ),
    (NormKind.GOEDEL, NormSide.TNORM): lambda a, b, c, d: (c, d) if a * d > c * b else (1, 1),
    (NormKind.PRODUCT, NormSide.TNORM): lambda a, b, c, d: (c * b, d * a) if a * d > c * b else (1, 1),
}


def _on_values(kernel):
    """``kernel`` as a function on values, with the kernel attached as its
    ``kernel`` attribute for the tables (reslat.valuetable) to call directly."""

    def form(x, y):
        return UnitValue(*kernel(x.numerator, x.denominator, y.numerator, y.denominator))

    form.kernel = kernel
    return form


@lru_cache(maxsize=None)
def closed_form(f: NormFamily):
    """The norm as a plain uncached callable, for hot exhaustive sweeps; its
    integer kernel is its ``kernel`` attribute."""
    return _on_values(_NORM_KERNELS[f.kind, f.side])


def dualize(f: NormFamily) -> NormFamily:
    """The dual family: same kind, opposite side."""
    other = NormSide.SNORM if f.side is NormSide.TNORM else NormSide.TNORM
    return NormFamily(f.kind, other)


@lru_cache(maxsize=None)
def residuum_form(f: NormFamily):
    """The residuum of ``f`` as a plain callable ``(x, y) -> value`` (see
    :func:`reslat.norms.residuum`)."""
    if not f.is_residuated:
        raise DrasticNotResiduated("the drastic norms are not continuous; no residuum exists")
    return _on_values(_RESIDUUM_KERNELS[f.kind, f.side])
