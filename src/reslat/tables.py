"""The row kinds of the row sweeps that compare whole blocks of rows.

A sweep picks a row kind once, from the table's size: :class:`RankRows`
holds lists of order ranks, and :class:`ByteRows`, for at most 256 ranks,
bytes, which it gathers with ``bytes.translate`` and compares with one
big-integer test.  This module imports no other reslat module.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter, le


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
