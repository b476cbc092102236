"""The integer kernels of the norm families, and the value table that runs them.

Both halves share one protocol.  A kernel is an operation on x = a/b and
y = c/d (b, d > 0) in integers: ``kernel(a, b, c, d)`` returns the result
as a (numerator, denominator) pair, not necessarily reduced, and
comparisons cross-multiply (x <= y iff a*d <= c*b).  The families write
each closed form and residuum once, as a kernel, and hand it out as a
function on values that carries the kernel as its ``kernel`` attribute; the
value table reads that attribute, and :func:`kernel_of` wraps any other
function (a wrapper, a test's broken operation) as a kernel.

The four classic families are exact closed forms over rationals:
Lukasiewicz, Goedel, product, and drastic, each in a t-norm and an s-norm
flavour, dual to each other via ``S(x, y) = 1 - T(1 - x, 1 - y)``;
reslat.norms checks their laws.  The drastic pair is supported as a bare
norm only: it is not continuous, so requesting its residuum raises
:class:`DrasticNotResiduated`.  The drastic s-norm returns 1 when both
arguments are nonzero (the value printed in some sources as 0 breaks
associativity and the duality identity, and is treated here as a typo).

The exhaustive unit-grid sweeps, and formula evaluation over a t-norm
family, run on ids instead of on UnitValues.  A :class:`ValueTable` interns
exact values as ids; the grid points are ids ``0..N`` in increasing order,
and equal values share one id.  On a grid closed under the operations
(Lukasiewicz, Goedel, drastic) no id is ever added, so every operation is an
``(N+1)^2`` table of grid ids; otherwise (product) the values the
operations produce off the grid get the next ids as they appear.
:func:`kernel_row` is the one row primitive: it runs a kernel over whole
columns in C, as ``map(kernel, ...)``, and applies UnitValue's range check
to every result.  :meth:`ValueTable.map` interns its rows, and
:meth:`ValueTable.square` an operation's grid square, once per table and
function, so that the checkers of one ``reslat norms`` run share their
squares.  :meth:`ValueTable.operation` is an operation on one pair of ids,
which the grid law context keeps as a lazily filled table (reslat.laws).

The table orders its ids exactly: :meth:`ValueTable.ranks` lists the rank
of each id in value order, computed again only after an intern, and is
None while the ids increase with their values, as on a grid.  ``all_le``
tests a whole row of order pairs in C, on the ids or on their ranks.  The
row sweeps that compare whole blocks of rows are in reslat.norms and metric.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import gcd
from operator import floordiv, itemgetter, le, mul, truediv
from typing import Callable, Iterable

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
    ``kernel`` attribute for the value table to call directly."""

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


class ValueTable:
    """Interned exact rationals; ``values[i]`` is the value with id ``i``."""

    def __init__(self, points: Iterable):
        self.values: list = []
        self._ids: dict[tuple[int, int], int] = {}
        self._num: list[int] = []
        self._den: list[int] = []
        self._ranks: tuple = (0, None)  # the number of ids ranked, and ranks()
        self._squares: dict = {}  # the points' square of each function
        for v in points:
            self.intern(v)
        # The points' ids, 0..n_points - 1: the grid every square is taken on.
        self.n_points = len(self.values)

    def intern(self, v) -> int:
        """The id of ``v``, assigning the next one if ``v`` is new."""
        key = (v.numerator, v.denominator)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.values)
            self.values.append(v)
            self._num.append(key[0])
            self._den.append(key[1])
        return i

    def le(self, i: int, j: int) -> bool:
        """values[i] <= values[j], by integer cross-multiplication."""
        return self._num[i] * self._den[j] <= self._num[j] * self._den[i]

    def ranks(self) -> list[int] | None:
        """The rank of each id in value order, so that ``operator.le`` on
        ranks is :meth:`le` on ids; None while the ids increase with their
        values.  Computed again only after an intern."""
        n = len(self.values)
        if self._ranks[0] != n:
            num, den = self._num, self._den
            rank = None
            if not all(map(le, map(mul, num, den[1:]), map(mul, num[1:], den))):
                # The correctly rounded float of n/d orders the values up to
                # ties; the exact value breaks them.
                order = sorted(zip(map(truediv, num, den), self.values, range(n)))
                rank = [0] * n
                for r, (_, _, i) in enumerate(order):
                    rank[i] = r
            self._ranks = n, rank
        return self._ranks[1]

    def all_le(self, xs: Iterable[int], ys: Iterable[int]) -> bool:
        """``le(x, y)`` for every pair of ``zip(xs, ys)``, in C."""
        rank = self.ranks()
        if rank is None:
            return all(map(le, xs, ys))
        return all(map(le, map(rank.__getitem__, xs), map(rank.__getitem__, ys)))

    def apply(self, kernel: Callable, xs, ys) -> list[int]:
        """The ids of ``kernel`` on the ids ``xs[k], ys[k]``, for every k:
        the row primitive, with each result reduced and interned."""
        num, den = self._num.__getitem__, self._den.__getitem__
        ns, ds = kernel_row(kernel, map(num, xs), map(den, xs), map(num, ys), map(den, ys))
        gs = list(map(gcd, ns, ds))
        out = list(map(self._ids.get, zip(map(floordiv, ns, gs), map(floordiv, ds, gs))))
        if None in out:
            for k, i in enumerate(out):
                if i is None:
                    out[k] = self.intern(UnitValue(ns[k], ds[k]))
        return out

    def complements(self, ids) -> list[int]:
        """The ids of ``1 - v`` for the values ``v`` with the ids ``ids``."""
        return self.apply(_complement, ids, ids)

    def map(self, fn: Callable, xs, ys) -> list[int]:
        """The ids of ``fn`` on the ids ``xs[k], ys[k]``, for every k, by the
        row primitive on :func:`kernel_of` ``(fn)``."""
        return self.apply(kernel_of(fn), xs, ys)

    def square(self, fn: Callable, ids=None) -> list[list[int]]:
        """The ids ``fn(x, y)`` for every pair of ``ids``, row by row; by
        default the ids are the points', and that square is computed once
        per table and function."""
        rows = self._squares.get(fn) if ids is None else None
        if rows is None:
            rng = range(self.n_points) if ids is None else ids
            rows = [self.map(fn, [i] * len(rng), rng) for i in rng]
            if ids is None:
                self._squares[fn] = rows
        return rows

    def operation(self, fn: Callable) -> Callable[[int, int], int]:
        """``fn`` as a binary operation on ids: the kernel of ``fn`` runs on
        the ids' numerators and denominators, and its result is reduced and
        looked up; only a value new to the table is built as a UnitValue."""
        kernel, num, den, ids, intern = kernel_of(fn), self._num, self._den, self._ids, self.intern

        def compute(i: int, j: int) -> int:
            n, d = kernel(num[i], den[i], num[j], den[j])
            g = gcd(n, d)
            k = ids.get((n // g, d // g) if g > 1 else (n, d))
            # A value new to the table, or no value at all: UnitValue decides.
            return intern(UnitValue(n, d)) if k is None else k

        return compute


def kernel_of(fn: Callable) -> Callable:
    """The integer kernel of ``fn``: ``fn.kernel`` when it carries one (the
    closed forms and residua above do), else the kernel that runs
    ``fn`` itself on the values, ``(a, b, c, d) -> fn(a/b, c/d)`` as a pair."""
    kernel = getattr(fn, "kernel", None)
    if kernel is not None:
        return kernel

    def on_values(a: int, b: int, c: int, d: int) -> tuple[int, int]:
        v = fn(UnitValue(a, b), UnitValue(c, d))
        return v.numerator, v.denominator

    return on_values


def _complement(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    return d - c, d  # 1 - c/d


def kernel_row(kernel: Callable, xn, xd, yn, yd) -> tuple[tuple, tuple]:
    """``kernel`` over whole columns, as ``map(kernel, xn, xd, yn, yd)``:
    the numerators and the denominators of its results, as two tuples.

    Each result is checked as UnitValue checks it: a pair ``0 <= n <= d``
    with ``d > 0`` is kept as it is, and any other pair goes through
    UnitValue, which refuses it (ValueError, ZeroDivisionError) or gives its
    reduced form.
    """
    pairs = list(map(kernel, xn, xd, yn, yd))
    if not pairs:
        return (), ()
    ns, ds = zip(*pairs)
    if min(ds) > 0 and min(ns) >= 0 and all(map(le, ns, ds)):
        return ns, ds
    values = [UnitValue(n, d) for n, d in pairs]
    return tuple(v.numerator for v in values), tuple(v.denominator for v in values)
