"""Exact values interned as small integer ids, and whole rows of an operation.

The exhaustive unit-grid sweeps run on ids instead of on UnitValues.  The
grid points are ids ``0..N`` in increasing order; an operation is the
caller's own function on values (a family's closed form or residuum), so the
code under test is unchanged.  Equal values share one id, and the order is
decided exactly from the numerators and denominators the table keeps.  On a
grid closed under the operations (Lukasiewicz, Goedel, drastic) no id is
ever added, so every operation is an ``(N+1)^2`` table of grid ids;
otherwise (product) the values the operations produce off the grid get the
next ids as they appear.

Every operation runs as an integer kernel on numerators and denominators:
the closed forms and residua of reslat.norms carry theirs, and
:func:`kernel_of` wraps any other function (a wrapper, a test's broken
operation) as one.  :func:`kernel_row` is the one row primitive: it runs a
kernel over whole columns in C, as ``map(kernel, ...)``, and applies
UnitValue's range check to every result.  :meth:`ValueTable.map` interns
its rows, and :meth:`ValueTable.square` an operation's grid square, once
per table and function, so that the checkers of one ``reslat norms`` run
share their squares; a checker that only compares results (product
associativity, the star-triangle) compares the rows themselves and interns
nothing.  :meth:`ValueTable.operation` is an operation on one pair of ids,
which the grid law context keeps as a lazily filled table (reslat.laws).

The table orders its ids exactly: :meth:`ValueTable.ranks` lists the rank
of each id in value order, computed again only after an intern, and is
None while the ids increase with their values, as on a grid.  ``all_le``
tests a whole row of order pairs in C, on the ids or on their ranks.

A row sweep that gathers and compares many rows of ranks (the continuity
contracts) picks a row kind once, from the table's size: :class:`RankRows`
holds lists, and :class:`ByteRows`, for at most 256 ranks, bytes, which it
gathers with ``bytes.translate`` and compares with one big-integer test.
Closed-grid associativity compares whole blocks of byte rows with ``==``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain, repeat
from math import gcd, lcm
from operator import floordiv, itemgetter, le, mod, mul, truediv
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

    @property
    def ids_ordered(self) -> bool:
        """Whether the ids increase with their values."""
        return self.ranks() is None

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
    closed forms and residua of reslat.norms do), else the kernel that runs
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


def residuated(res: list, nrm: list, pts, upper: bool) -> bool:
    """Whether ``a >= res[b][c]`` iff ``nrm[a][b] >= pts[c]`` for all a, b,
    c, or with ``upper`` false ``a <= res[b][c]`` iff ``nrm[a][b] <= pts[c]``
    (a reads ``pts[a]``), on order ranks with ``pts`` increasing.

    For each b the column ``a -> nrm[a][b]`` must be non-decreasing; else
    the answer is False.  Then both sides, as sets of a, are up-sets (down-
    sets) of the chain of points, and they are equal iff their thresholds
    are: the first a with ``pts[a] >= res[b][c]`` and the first a with
    ``nrm[a][b] >= pts[c]``, both found by ``bisect_left`` (by
    ``bisect_right`` for down-sets), one comparison per (b, c).
    """
    cols = list(zip(*nrm))
    if not all(all(map(le, col, col[1:])) for col in cols):
        return False
    find = bisect_left if upper else bisect_right
    return all(
        list(map(find, repeat(pts), res_b)) == list(map(find, repeat(col), pts)) for res_b, col in zip(res, cols)
    )


class RankRows:
    """Rows of order ranks as lists: a row sweep's four operations.

    ``index(positions)`` is the function that gathers the entries at
    ``positions`` (two or more) from a row ``table(ranks)``, ``concat`` joins
    gathered rows, and ``all_le`` is ``operator.le`` on every pair of two
    rows; each does its work in C.
    """

    index = staticmethod(lambda positions: itemgetter(*positions))
    table = list
    concat = staticmethod(lambda parts: list(chain.from_iterable(parts)))
    all_le = staticmethod(lambda xs, ys: all(map(le, xs, ys)))


def _bytes_all_le(xs: bytes, ys: bytes) -> bool:
    # Lane by lane, with H the byte 0x80 in every lane: (Y | H) - (X & ~H)
    # borrows across no lane, and its high bit says y mod 128 >= x mod 128.
    # So x <= y where y's high bit alone is set, or both high bits agree and
    # that borrow test holds; exact for every byte 0..255.
    h = int.from_bytes(b"\x80" * len(xs), "big")
    x, y = int.from_bytes(xs, "big"), int.from_bytes(ys, "big")
    w = (y | h) - (x & ~h)
    return ((y & ~x) | (~(x ^ y) & w)) & h == h


class ByteRows:
    """:class:`RankRows` for tables of at most 256 ranks, one byte each: a row
    table is the row padded to 256 bytes, a gather ``bytes.translate`` and
    ``all_le`` one big-integer test over all the bytes at once (SWAR)."""

    index = staticmethod(lambda positions: bytes(positions).translate)
    table = staticmethod(lambda ranks: bytes(ranks).ljust(256, b"\0"))
    concat = b"".join
    all_le = staticmethod(_bytes_all_le)


def row_kind(ranks: int):
    """The row kind for a table of ``ranks`` order ranks."""
    return ByteRows if ranks <= 256 else RankRows


def positions(rows) -> tuple[list[int], dict]:
    """The ids the ``rows`` hold, in increasing order, and the position of each."""
    ids = sorted(set().union(*rows))
    return ids, dict(zip(ids, range(len(ids))))


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


def associativity_rows(table: ValueTable, fn: Callable, sq: list[list[int]]):
    """None where ``T(T(x, y), z) == T(x, T(y, z))`` for all points x, y, z,
    with T ``fn`` and ``sq`` its square: on a closed grid (every ``T(x, y)``
    a point) of at most 256 points as the square alone decides it, else as
    :func:`rows_associative` decides it on the kernel of ``fn``.  Otherwise
    the function ``(x, y) -> (lhs, rhs)``, the two sides as rows of ids over
    z, read from the square on such a closed grid and computed by
    :meth:`ValueTable.map` otherwise.
    """
    m = table.n_points
    if m <= 256 and max(map(max, sq)) < m:
        # Row x of each side at once, as bytes over (y, z): (T(T(x, y), z))_y,z
        # joins rows of the square, and (T(x, T(y, z)))_y,z gathers every row
        # of the square through row x.
        rows = list(map(bytes, sq))
        if all(
            b"".join(itemgetter(*row)(rows)) == b"".join(map(bytes.translate, rows, repeat(ByteRows.table(row))))
            for row in sq
        ):
            return None
        return lambda x, y: (sq[sq[x][y]], list(map(sq[x].__getitem__, sq[y])))
    if rows_associative(table, kernel_of(fn), sq):
        return None
    return lambda x, y: (table.map(fn, [sq[x][y]] * m, range(m)), table.map(fn, [x] * m, sq[y]))


def rows_associative(table: ValueTable, kernel: Callable, sq: list[list[int]]) -> bool:
    """Whether ``T(T(x, y), z) == T(x, T(y, z))`` for all points x, y, z,
    where T is ``kernel`` and ``sq`` its square of ids on the points.

    ``T(x, .)`` runs over the square's ids once per x, and ``T(s, .)`` over
    the points once per distinct ``s = T(x, y)``, as rows of kernel_row.
    Every result is a key over one common denominator ``L``, so that rows
    compare with ``==``; only the rows ``T(x, .)`` are kept, as int64
    arrays, and no result is interned.  False also where a result is
    refused (the caller's row sweep then meets the refusal in its own
    order) or a key cannot be formed: a result denominator that does not
    divide ``L``, or a key past int64.
    """
    num, den = table._num, table._den
    m = table.n_points
    ids, pos = positions(sq)
    # picks[y] takes (T(x, T(y, z)))_z from the row of T(x, .) over the square's ids.
    picks = [itemgetter(*map(pos.__getitem__, row)) for row in sq]
    id_num, id_den = [num[i] for i in ids], [den[i] for i in ids]
    pt_num, pt_den = num[:m], den[:m]
    # Every kernel of reslat.norms gives a denominator that divides the
    # product of its arguments' denominators.
    common = lcm(*pt_den) * lcm(*id_den)

    def keys(ns, ds) -> list[int]:
        if any(map(mod, repeat(common), ds)):
            raise ArithmeticError("a result denominator does not divide the common one")
        return list(map(mul, ns, map(floordiv, repeat(common), ds)))

    try:
        rows = [
            array("q", keys(*kernel_row(kernel, repeat(num[x], len(ids)), repeat(den[x], len(ids)), id_num, id_den)))
            for x in range(m)
        ]
        pairs = defaultdict(list)
        for x, row in enumerate(sq):
            for y, s in enumerate(row):
                pairs[s].append((x, y))
        for s, xys in pairs.items():
            lhs = tuple(keys(*kernel_row(kernel, repeat(num[s], m), repeat(den[s], m), pt_num, pt_den)))
            for x, y in xys:
                if lhs != picks[y](rows[x]):
                    return False
    except (ArithmeticError, ValueError):  # ZeroDivisionError and OverflowError included
        return False
    return True
