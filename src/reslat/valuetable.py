"""Exact values interned as small integer ids, and whole rows of an operation.

The exhaustive unit-grid sweeps, and formula evaluation over a t-norm
family, run on ids instead of on UnitValues.  The grid points are ids
``0..N`` in increasing order; an operation is the caller's own function on
values (a family's closed form or residuum), so the code under test is
unchanged.  Equal values share one id, and the order is decided exactly
from the numerators and denominators the table keeps.  On a grid closed
under the operations (Lukasiewicz, Goedel, drastic) no id is ever added, so
every operation is an ``(N+1)^2`` table of grid ids; otherwise (product)
the values the operations produce off the grid get the next ids as they
appear.

Every operation runs as an integer kernel on numerators and denominators:
the closed forms and residua of reslat.families carry theirs, and
:func:`kernel_of` wraps any other function (a wrapper, a test's broken
operation) as one.  :func:`kernel_row` is the one row primitive: it runs a
kernel over whole columns in C, as ``map(kernel, ...)``, and applies
UnitValue's range check to every result.  :meth:`ValueTable.map` interns
its rows, and :meth:`ValueTable.square` an operation's grid square, once
per table and function, so that the checkers of one ``reslat norms`` run
share their squares.  :meth:`ValueTable.operation` is an operation on one
pair of ids, which the grid law context keeps as a lazily filled table
(reslat.laws).

The table orders its ids exactly: :meth:`ValueTable.ranks` lists the rank
of each id in value order, computed again only after an intern, and is
None while the ids increase with their values, as on a grid.  ``all_le``
tests a whole row of order pairs in C, on the ids or on their ranks.

The row sweeps that compare whole blocks of rows are in reslat.tables,
which re-exports the public names defined here.
"""

from __future__ import annotations

from math import gcd
from operator import floordiv, le, mul, truediv
from typing import Callable, Iterable

from .unitval import UnitValue


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
    closed forms and residua of reslat.families do), else the kernel that runs
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
