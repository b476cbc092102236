"""Exhaustive grid checkers of the norm families and their residua.

The families, their closed forms and residua live in reslat.kernels and are
re-exported here; the checkers look ``closed_form`` and ``residuum_form`` up
in this module, as do the scalar helpers below.  The grid checkers share
squares through an optional ValueTable of their grid: ``reslat norms``
passes one table to all of them.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import repeat
from math import lcm
from operator import floordiv, ge, itemgetter, le, mod, mul
from typing import Callable

from .errors import DrasticNotResiduated
from .kernels import NormFamily, NormKind, NormSide, ValueTable, closed_form, kernel_of, kernel_row, residuum_form
from .kernels import dualize  # noqa: F401  (re-exported)
from .reports import LawReport, Violation
from .tables import ByteRows, positions
from .unitval import GridSpec, UnitValue

# The largest grid denominator ``reslat norms`` runs the residuum oracle on.
MAX_ORACLE_GRID = 16


def apply_norm(f: NormFamily, x: UnitValue, y: UnitValue) -> UnitValue:
    """Closed-form value of the norm; exact rational."""
    return closed_form(f)(x, y)


def dual_check(f: NormFamily, x: UnitValue, y: UnitValue) -> bool:
    """Exact duality identity S(x, y) == 1 - T(1-x, 1-y) for f's kind."""
    s = NormFamily.s_norm(f.kind)
    t = NormFamily.t_norm(f.kind)
    return apply_norm(s, x, y) == apply_norm(t, x.complement(), y.complement()).complement()


def residuum(f: NormFamily, x: UnitValue, y: UnitValue) -> UnitValue:
    """Residuum closed form.

    s-norm side: R(x, y) = min{c : S(c, x) >= y}; t-norm side the adjoint
    R(x, y) = max{c : T(c, x) <= y}.
    """
    return residuum_form(f)(x, y)


def _oracle_denominator(f: NormFamily, x: UnitValue, y: UnitValue, g: GridSpec) -> int:
    # Refine the grid so that the true residuum is guaranteed to lie on it;
    # for the product family the answer's denominator divides
    # den(y - x) * num(1 - x) on the s-side (den(x) * num(y) on the t-side).
    d = lcm(g.denominator, x.denominator, y.denominator)
    if f.kind is NormKind.PRODUCT:
        if f.side is NormSide.SNORM and x < y:
            d = lcm(d, (y - x).denominator * (1 - x).numerator)
        elif f.side is NormSide.TNORM and x > y:
            d = lcm(d, x.numerator * y.denominator)
    return d


def residuum_oracle(f: NormFamily, x: UnitValue, y: UnitValue, g: GridSpec) -> UnitValue:
    """Brute-force residuum: scan grid points in order, no closed forms.

    s-norm side: the least grid point c with S(c, x) >= y (ascending scan);
    t-norm side: the greatest grid point c with T(c, x) <= y (descending).
    The scan grid refines GridSpec by the input denominators so the exact
    answer is always representable.  Each candidate ``k/denom`` runs through
    the norm's integer kernel, and its result is compared with y by
    cross-multiplication; a result outside [0, 1] is refused by UnitValue.
    """
    if not f.is_residuated:
        raise DrasticNotResiduated("the drastic norms are not continuous; no residuum exists")
    denom, kernel = _oracle_denominator(f, x, y, g), kernel_of(closed_form(f))
    a, b, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    # The t-side is the s-side read in the reverse order.
    snorm_side = f.side is NormSide.SNORM
    bound = ge if snorm_side else le
    for k in range(denom + 1) if snorm_side else range(denom, -1, -1):
        n, d = kernel(k, denom, a, b)
        if not (d > 0 and 0 <= n <= d):
            v = UnitValue(n, d)
            n, d = v.numerator, v.denominator
        if bound(n * yd, yn * d):
            return UnitValue(k, denom)
    raise AssertionError("unreachable: S(1, x) = 1 >= y and T(0, x) = 0 <= y")


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


def adjointness_check(f: NormFamily, g: GridSpec, table=None) -> LawReport:
    """Residuation as a biconditional, exhaustively over grid triples.

    s-norm side: a >= R(b, c)  iff  S(a, b) >= c.
    t-norm side: a <= R(b, c)  iff  T(a, b) <= c.
    """
    if not f.is_residuated:
        raise DrasticNotResiduated("adjointness is undefined for the drastic family")
    pts = g.points()
    m = len(pts)
    rng = range(m)
    law = "DBL3-adjointness" if f.side is NormSide.SNORM else "BL3-adjointness"
    report = LawReport(law, m**3)
    table = table or ValueTable(pts)
    res = table.square(residuum_form(f))
    nrm = table.square(closed_form(f))
    # Order ranks, so that ``operator.le`` compares them as it compares values.
    rank = table.ranks()
    ranked = (lambda rows: rows) if rank is None else lambda rows: [list(map(rank.__getitem__, row)) for row in rows]
    res_r, nrm_r, (grid_r,) = ranked(res), ranked(nrm), ranked([rng])
    snorm_side = f.side is NormSide.SNORM
    # The t-side's order is the s-side's reversed: one comparison for both.
    below = le if snorm_side else ge
    # One row per (a, b), over c.
    for a, b in () if residuated(res_r, nrm_r, grid_r, snorm_side) else itertools.product(rng, repeat=2):
        a_row, n_row = [grid_r[a]] * m, [nrm_r[a][b]] * m
        left, right = list(map(below, res_r[b], a_row)), list(map(below, grid_r, n_row))
        if left != right:
            report.register_row(left, right, lambda c: (pts[a], pts[b], pts[c]), bool, note="biconditional mismatch")
    return report


def oracle_agreement_check(f: NormFamily, g: GridSpec) -> LawReport:
    """Closed-form residuum against the scanning oracle on all grid pairs."""
    report, res = LawReport("residuum-oracle"), residuum_form(f)
    for x, y in itertools.product(g.points(), repeat=2):
        report.checked += 1
        got, expected = res(x, y), residuum_oracle(f, x, y, g)
        if got != expected:
            report.register(Violation("residuum-oracle", (x, y), got, expected))
    return report


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


def norm_axioms_check(f: NormFamily, g: GridSpec, table=None) -> list[LawReport]:
    """Associativity, commutativity, monotonicity, and the boundary condition."""
    pts = g.points()
    m = len(pts)
    rng = range(m)
    table = table or ValueTable(pts)
    fn = closed_form(f)
    grid_tab = table.square(fn)
    cols = [list(col) for col in zip(*grid_tab)]

    # Each law compares whole rows over its last variable; only a row that
    # differs is swept again, to register its witnesses in tuple order.
    show = table.values.__getitem__
    assoc = LawReport("associativity", m**3)
    rows = associativity_rows(table, fn, grid_tab)
    for x, y in itertools.product(rng, repeat=2) if rows else ():
        lhs, rhs = rows(x, y)
        if lhs != rhs:
            assoc.register_row(lhs, rhs, lambda z: (pts[x], pts[y], pts[z]), show)
    comm = LawReport("commutativity", m**2)
    for x in rng:
        if grid_tab[x] != cols[x]:
            comm.register_row(grid_tab[x], cols[x], lambda y: (pts[x], pts[y]), show)
    mono = LawReport("monotonicity", m * m * (m + 1) // 2)
    chained = all(map(table.all_le, grid_tab, grid_tab[1:]))  # le is transitive
    for x1, x2 in () if chained else itertools.combinations_with_replacement(rng, 2):
        if not table.all_le(grid_tab[x1], grid_tab[x2]):
            mono.register_row(grid_tab[x1], grid_tab[x2], lambda y: (pts[x1], pts[x2], pts[y]), show, table.le)
    unit_idx = m - 1 if f.side is NormSide.TNORM else 0
    boundary = LawReport("boundary", m)
    boundary.register_row(grid_tab[unit_idx], rng, lambda x: (pts[unit_idx], pts[x]), show)
    return [assoc, comm, mono, boundary]


def tuples_checked(kinds, grid: int) -> int:
    """The sum of the ``checked`` counts of the reports ``reslat norms``
    makes for ``kinds`` at denominator ``grid``: the norm axioms and duality
    of each kind, adjointness and the oracle (at most at MAX_ORACLE_GRID) of
    each residuated kind, and the two ordering chains."""
    m, oracle = grid + 1, min(grid, MAX_ORACLE_GRID) + 1
    axioms = m**3 + m**2 + m * m * (m + 1) // 2 + m
    adjoint = sum(kind is not NormKind.DRASTIC for kind in kinds)
    return len(kinds) * (2 * axioms + m**2) + adjoint * (m**3 + oracle**2) + 2 * 3 * m**2


def ordering_chain_check(side: NormSide, g: GridSpec, table=None) -> LawReport:
    """Pointwise ordering of the four families on all grid pairs.

    t-norms: drastic <= lukasiewicz <= product <= goedel;
    s-norms the reverse chain: goedel <= product <= lukasiewicz <= drastic.
    """
    chain = [NormKind.DRASTIC, NormKind.LUKASIEWICZ, NormKind.PRODUCT, NormKind.GOEDEL]
    families = [NormFamily(k, side) for k in (chain if side is NormSide.TNORM else reversed(chain))]
    pts = g.points()
    m = len(pts)
    table = table or ValueTable(pts)
    values = table.values
    tabs = [table.square(closed_form(f)) for f in families]
    rng = range(m)
    report = LawReport("ordering-chain", (len(families) - 1) * m**2)
    for x in rng:
        rows = [tab[x] for tab in tabs]
        if all(map(table.all_le, rows, rows[1:])):
            continue
        for y in rng:
            for lo, hi, f_lo, f_hi in zip(tabs, tabs[1:], families, families[1:]):
                if not table.le(lo[x][y], hi[x][y]):
                    report.register(
                        Violation(
                            "ordering-chain",
                            (pts[x], pts[y]),
                            values[lo[x][y]],
                            values[hi[x][y]],
                            f"{f_lo.kind.value} > {f_hi.kind.value}",
                        )
                    )
    return report


def duality_check(kind: NormKind, g: GridSpec, table=None) -> LawReport:
    """Duality identity on all grid pairs for one family kind: the grid is
    closed under complement, and grid id k complements to id N - k."""
    pts = g.points()
    top = len(pts) - 1
    report = LawReport("duality", len(pts) ** 2)
    table = table or ValueTable(pts)
    s_norm = table.square(closed_form(NormFamily.s_norm(kind)))
    t_norm = table.square(closed_form(NormFamily.t_norm(kind)))
    for x in range(len(pts)):
        s_row, t_row = s_norm[x], table.complements(t_norm[top - x][::-1])
        if s_row != t_row:
            report.register_row(s_row, t_row, lambda y: (pts[x], pts[y]), table.values.__getitem__)
    return report
