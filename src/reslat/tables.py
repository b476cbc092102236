"""Exact values interned as small integer ids, with memoised operations.

The exhaustive unit-grid sweeps run on ids instead of on UnitValues.  The
grid points are ids ``0..N`` in increasing order; an operation is the
caller's own function on values (a family's closed form or residuum), so the
code under test is unchanged, but it runs once per distinct pair of ids.
Equal values share one id, and the order is decided exactly from the
numerators and denominators the table keeps.  On a grid closed under the
operations (Lukasiewicz, Goedel, drastic) no id is ever added, so every
operation is an ``(N+1)^2`` table of grid ids; otherwise (product) the
values the operations produce off the grid get the next ids as they appear.

The closed forms and residua of reslat.norms carry an integer kernel on
numerators and denominators; an operation on such a function runs the
kernel on the table's own numerator and denominator lists and builds a
UnitValue only for a value new to the table.  Any other function (a
wrapper, a test's broken operation, a complement) runs on values.

The sweeps work on whole rows of ids: an operation hands out a row
``op.row(i, js)`` or an elementwise list ``op.map(is_, js)``, read from its
memo rows in C, and ``all_le`` tests a whole row of order pairs, by plain
id order while the ids still increase with their values.  Where a law
interns nothing more, :meth:`ValueTable.ranked` maps the rows it compares
to order ranks once, so that ``operator.le`` compares them in C.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import Callable, Iterable

from .unitval import UnitValue


class ValueTable:
    """Interned exact rationals; ``values[i]`` is the value with id ``i``."""

    def __init__(self, points: Iterable):
        self.values: list = []
        self._ids: dict[tuple[int, int], int] = {}
        self._num: list[int] = []
        self._den: list[int] = []
        # True while every id was interned above the one before it, so that
        # id order is value order.
        self.ids_ordered = True
        for v in points:
            self.intern(v)

    def intern(self, v) -> int:
        """The id of ``v``, assigning the next one if ``v`` is new."""
        key = (v.numerator, v.denominator)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.values)
            if self.ids_ordered and i and key[0] * self._den[-1] < self._num[-1] * key[1]:
                self.ids_ordered = False
            self.values.append(v)
            self._num.append(key[0])
            self._den.append(key[1])
        return i

    def le(self, i: int, j: int) -> bool:
        """values[i] <= values[j], by integer cross-multiplication."""
        return self._num[i] * self._den[j] <= self._num[j] * self._den[i]

    def all_le(self, xs: Iterable[int], ys: Iterable[int]) -> bool:
        """``le(x, y)`` for every pair of ``zip(xs, ys)``."""
        return all(map(operator.le if self.ids_ordered else self.le, xs, ys))

    def operation(self, fn: Callable) -> Callable[[int, int], int]:
        """``fn`` on values as a binary operation on ids, computed once per
        distinct pair (see :meth:`memo`).

        When ``fn`` carries an integer kernel as ``fn.kernel`` (the closed
        forms and residua of reslat.norms do), the kernel runs on the ids'
        numerators and denominators, and its result ``(n, d)`` is reduced
        and looked up; a UnitValue, with its range check, is built only for
        a value that is new to the table.  Any other ``fn`` runs on values.
        """
        kernel = getattr(fn, "kernel", None)
        if kernel is None:
            values, intern = self.values, self.intern
            return self.memo(lambda i, j: intern(fn(values[i], values[j])))
        num, den, ids, intern = self._num, self._den, self._ids, self.intern

        def compute(i: int, j: int) -> int:
            n, d = kernel(num[i], den[i], num[j], den[j])
            g = gcd(n, d)
            k = ids.get((n // g, d // g) if g > 1 else (n, d))
            # A value new to the table, or no value at all: UnitValue decides.
            return intern(UnitValue(n, d)) if k is None else k

        return self.memo(compute)

    def ranked(self, rows: list) -> list[list[int]]:
        """``rows`` of ids with each id replaced by its rank among the ids
        the rows hold, so that ``operator.le`` on ranks is :meth:`le` on the
        ids.  Ranks compare only with ranks from the same call: rank together
        every row a law compares, once nothing more is interned for it."""
        if self.ids_ordered:
            return rows
        num, den, values = self._num, self._den, self.values
        # The float of n/d is correctly rounded, so it orders the values up
        # to ties; the exact value breaks them.
        order = sorted(set().union(*rows), key=lambda i: (num[i] / den[i], values[i]))
        rank = dict(zip(order, range(len(order))))
        return [list(map(rank.__getitem__, row)) for row in rows]

    def memo(self, compute: Callable[[int, int], int]) -> Callable[[int, int], int]:
        """``compute`` on ids, called once per distinct pair.

        The memo is a list of rows: ``rows[i][j]`` is ``compute(i, j)``, or
        None until that pair is asked for.  The returned ``op(i, j)`` reads
        one entry; ``op.row(i, js)`` is ``[op(i, j) for j in js]`` and
        ``op.map(is_, js)`` is ``[op(i, j) for i, j in zip(is_, js)]``, both
        read in C, with only the missing entries computed.
        ``is_`` and ``js`` must be sequences: a miss reads them again.
        """
        rows: list[list] = []
        values = self.values

        def grow(i: int, j: int) -> list:
            rows.extend([] for _ in range(i + 1 - len(rows)))
            row = rows[i]
            # A row at least doubles when it grows, up to the number of ids,
            # so a sweep along a row extends it O(log n) times.
            row.extend([None] * (max(j + 1, min(2 * len(row), len(values))) - len(row)))
            return row

        def apply(i: int, j: int) -> int:
            try:
                k = rows[i][j]
            except IndexError:
                k = grow(i, j)[j]
            if k is None:
                k = rows[i][j] = compute(i, j)
            return k

        # row and map_ never refer to apply: an operation that carried a
        # reference to itself would outlive its sweep until the cyclic
        # garbage collector runs, and its memo rows with it.
        def fill(out: list, is_, js) -> list[int]:
            """``out`` with its None entries, the pairs not yet computed, filled in."""
            for k, (i, j) in enumerate(zip(is_, js)):
                if out[k] is None:
                    memo_row = rows[i]
                    if memo_row[j] is None:
                        memo_row[j] = compute(i, j)
                    out[k] = memo_row[j]
            return out

        def row(i: int, js) -> list[int]:
            try:
                memo_row = rows[i]
                out = list(map(memo_row.__getitem__, js))
            except IndexError:
                memo_row = grow(i, max(js, default=0))
                out = list(map(memo_row.__getitem__, js))
            if None in out:
                for k, j in enumerate(js):
                    if out[k] is None:
                        v = memo_row[j]
                        if v is None:
                            v = memo_row[j] = compute(i, j)
                        out[k] = v
            return out

        def map_(is_, js) -> list[int]:
            try:
                out = list(map(operator.getitem, map(rows.__getitem__, is_), js))
            except IndexError:
                for i, j in zip(is_, js):
                    if i >= len(rows) or j >= len(rows[i]):
                        grow(i, j)
                out = list(map(operator.getitem, map(rows.__getitem__, is_), js))
            return fill(out, is_, js) if None in out else out

        apply.row, apply.map = row, map_
        return apply


def square(op: Callable[[int, int], int], n: int) -> list[list[int]]:
    """The ids ``op(i, j)`` for the first ``n`` ids (the grid), row by row."""
    return [[op(i, j) for j in range(n)] for i in range(n)]
