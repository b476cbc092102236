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
"""

from __future__ import annotations

from typing import Callable, Iterable


class ValueTable:
    """Interned exact rationals; ``values[i]`` is the value with id ``i``."""

    def __init__(self, points: Iterable):
        self.values: list = []
        self._ids: dict[tuple[int, int], int] = {}
        self._num: list[int] = []
        self._den: list[int] = []
        for v in points:
            self.intern(v)

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

    def operation(self, fn: Callable) -> Callable[[int, int], int]:
        """``fn`` on values as a binary operation on ids, computed once per
        distinct pair.  The memo is a list of rows: ``rows[i][j]`` is the id
        of ``fn(values[i], values[j])``, or None until that pair is asked for."""
        rows: list[list] = []
        values, intern = self.values, self.intern

        def apply(i: int, j: int) -> int:
            try:
                k = rows[i][j]
            except IndexError:
                rows.extend([] for _ in range(i + 1 - len(rows)))
                row = rows[i]
                # A row at least doubles when it grows, up to the number of
                # ids, so a sweep along a row extends it O(log n) times.
                row.extend([None] * (max(j + 1, min(2 * len(row), len(values))) - len(row)))
                k = None
            if k is None:
                k = rows[i][j] = intern(fn(values[i], values[j]))
            return k

        return apply


def square(op: Callable[[int, int], int], n: int) -> list[list[int]]:
    """The ids ``op(i, j)`` for the first ``n`` ids (the grid), row by row."""
    return [[op(i, j) for j in range(n)] for i in range(n)]
