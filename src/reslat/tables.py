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

The sweeps work on whole rows of ids: an operation hands out a row
``op.row(i, js)`` or an elementwise list ``op.map(is_, js)``, read from its
memo rows in C, and ``all_le`` tests a whole row of order pairs, by plain
id order while the ids still increase with their values.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Callable, Iterable


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

    def les(self, xs: Iterable[int], ys: Iterable[int]) -> list[bool]:
        """``[le(x, y) for x, y in zip(xs, ys)]``."""
        return list(map(operator.le if self.ids_ordered else self.le, xs, ys))

    def all_le(self, xs: Iterable[int], ys: Iterable[int]) -> bool:
        """``le(x, y)`` for every pair of ``zip(xs, ys)``."""
        return all(map(operator.le if self.ids_ordered else self.le, xs, ys))

    def operation(self, fn: Callable) -> Callable[[int, int], int]:
        """``fn`` on values as a binary operation on ids, computed once per
        distinct pair (see :meth:`memo`)."""
        values, intern = self.values, self.intern
        return self.memo(lambda i, j: intern(fn(values[i], values[j])))

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
                out = list(map(rows[i].__getitem__, js))
            except IndexError:
                out = list(map(grow(i, max(js, default=0)).__getitem__, js))
            return fill(out, repeat(i), js) if None in out else out

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
