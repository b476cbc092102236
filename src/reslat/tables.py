"""Row sweeps over the value tables of reslat.kernels: the residuation test
of two squares, closed-grid and off-grid associativity, and the row kinds
of the continuity contracts and the star-triangle.  A checker that only
compares results (product associativity, the star-triangle) compares the
rows themselves and interns nothing.

A row sweep that gathers and compares many rows of ranks picks a row kind
once, from the table's size: :class:`RankRows` holds lists, and
:class:`ByteRows`, for at most 256 ranks, bytes, which it gathers with
``bytes.translate`` and compares with one big-integer test.
Closed-grid associativity compares whole blocks of byte rows with ``==``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain, repeat
from math import lcm
from operator import floordiv, itemgetter, le, mod, mul
from typing import Callable

from .kernels import ValueTable, kernel_of, kernel_row


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


def associativity_rows(table: ValueTable, fn: Callable, sq: list[list[int]]):
    """None where ``T(T(x, y), z) == T(x, T(y, z))`` for all points x, y, z,
    with T ``fn`` and ``sq`` its square: on a closed grid (every ``T(x, y)``
    a point) of at most 256 points as the square alone decides it, else as
    :func:`rows_associative` decides it on the kernel of ``fn``.  Otherwise
    the function ``(x, y) -> (lhs, rhs)``, the two sides as rows of ids over
    z, computed by :meth:`ValueTable.map` (on a closed grid it gives the
    square's ids and interns nothing).
    """
    m = table.n_points
    if m <= 256 and max(map(max, sq)) < m:
        # Row x of each side at once, as bytes over (y, z): (T(T(x, y), z))_y,z
        # joins rows of the square, and (T(x, T(y, z)))_y,z gathers every row
        # of the square through row x.
        rows = list(map(bytes, sq))
        holds = all(
            b"".join(itemgetter(*row)(rows)) == b"".join(map(bytes.translate, rows, repeat(ByteRows.table(row))))
            for row in sq
        )
    else:
        holds = rows_associative(table, kernel_of(fn), sq)
    return None if holds else lambda x, y: (table.map(fn, [sq[x][y]] * m, range(m)), table.map(fn, [x] * m, sq[y]))


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
    # Every family kernel of reslat.kernels gives a denominator that divides the
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
