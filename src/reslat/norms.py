"""Norm families on the unit interval and their residua.

The four classic families are implemented as exact closed forms over
rationals: Lukasiewicz, Goedel, product, and drastic.  Each family exists in
a t-norm and an s-norm flavour, dual to each other via
``S(x, y) = 1 - T(1 - x, 1 - y)``.

The drastic pair is supported as a bare norm only: it is not continuous, so
requesting its residuum raises :class:`DrasticNotResiduated`.

Note on the drastic s-norm: its standard definition returns 1 when both
arguments are nonzero (the value printed in some sources as 0 breaks
associativity and the duality identity, and is treated here as a typo).
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache, partial
from math import lcm
from operator import itemgetter, le

from .errors import DrasticNotResiduated
from .reports import LawReport, Violation
from .unitval import GridSpec, UnitValue

# The largest grid denominator ``reslat norms`` runs the residuum oracle on.
MAX_ORACLE_GRID = 16

# The grid checkers import reslat.tables when they run: evaluating formulas
# needs only the scalar forms, so an ``eval`` process never loads it.


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
    ``kernel`` attribute for the tables (reslat.tables) to call directly."""

    def form(x, y):
        return UnitValue(*kernel(x.numerator, x.denominator, y.numerator, y.denominator))

    form.kernel = kernel
    return form


@lru_cache(maxsize=None)
def closed_form(f: NormFamily):
    """The norm as a plain uncached callable, for hot exhaustive sweeps; its
    integer kernel is its ``kernel`` attribute."""
    return _on_values(_NORM_KERNELS[f.kind, f.side])


def apply_norm(f: NormFamily, x: UnitValue, y: UnitValue) -> UnitValue:
    """Closed-form value of the norm; exact rational."""
    return closed_form(f)(x, y)


def dualize(f: NormFamily) -> NormFamily:
    """The dual family: same kind, opposite side."""
    other = NormSide.SNORM if f.side is NormSide.TNORM else NormSide.TNORM
    return NormFamily(f.kind, other)


def dual_check(f: NormFamily, x: UnitValue, y: UnitValue) -> bool:
    """Exact duality identity S(x, y) == 1 - T(1-x, 1-y) for f's kind."""
    s = NormFamily.s_norm(f.kind)
    t = NormFamily.t_norm(f.kind)
    return apply_norm(s, x, y) == apply_norm(t, x.complement(), y.complement()).complement()


@lru_cache(maxsize=None)
def residuum_form(f: NormFamily):
    """The residuum of ``f`` as a plain callable ``(x, y) -> value`` (see
    :func:`residuum`)."""
    if not f.is_residuated:
        raise DrasticNotResiduated("the drastic norms are not continuous; no residuum exists")
    return _on_values(_RESIDUUM_KERNELS[f.kind, f.side])


def residuum(f: NormFamily, x: UnitValue, y: UnitValue) -> UnitValue:
    """Residuum closed form.

    s-norm side: R(x, y) = min{c : S(c, x) >= y}; t-norm side the adjoint
    R(x, y) = max{c : T(c, x) <= y}.
    """
    return residuum_form(f)(x, y)


# The checkers reach the residuum through the module name ``residuum``, so
# that a replacement of it is what they check; only this function carries
# the per-family forms, and with them the kernels.
residuum.form = residuum_form


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
    answer is always representable.
    """
    if not f.is_residuated:
        raise DrasticNotResiduated("the drastic norms are not continuous; no residuum exists")
    denom = _oracle_denominator(f, x, y, g)
    if f.side is NormSide.SNORM:
        for k in range(denom + 1):
            c = UnitValue(k, denom)
            if apply_norm(f, c, x) >= y:
                return c
        raise AssertionError("unreachable: S(1, x) = 1 >= y")
    for k in range(denom, -1, -1):
        c = UnitValue(k, denom)
        if apply_norm(f, c, x) <= y:
            return c
    raise AssertionError("unreachable: T(0, x) = 0 <= y")


def adjointness_check(f: NormFamily, g: GridSpec) -> LawReport:
    """Residuation as a biconditional, exhaustively over grid triples.

    s-norm side: a >= R(b, c)  iff  S(a, b) >= c.
    t-norm side: a <= R(b, c)  iff  T(a, b) <= c.
    """
    from .tables import ValueTable, square

    if not f.is_residuated:
        raise DrasticNotResiduated("adjointness is undefined for the drastic family")
    pts = g.points()
    m = len(pts)
    rng = range(m)
    law = "DBL3-adjointness" if f.side is NormSide.SNORM else "BL3-adjointness"
    report = LawReport(law, m**3)
    table = ValueTable(pts)
    form = getattr(residuum, "form", None)
    res = square(table.operation(form(f) if form else partial(residuum, f)), m)
    nrm = square(table.operation(closed_form(f)), m)
    # Nothing is interned past the two squares: compare order ranks.
    ranks = table.ranked(res + nrm + [rng])
    res_r, nrm_r, grid_r = ranks[:m], ranks[m:-1], ranks[-1]
    snorm_side = f.side is NormSide.SNORM
    # One row per (a, b), over c.
    for a, b in itertools.product(rng, repeat=2):
        a_row, n_row = [grid_r[a]] * m, [nrm_r[a][b]] * m
        if snorm_side:
            left, right = list(map(le, res_r[b], a_row)), list(map(le, grid_r, n_row))
        else:
            left, right = list(map(le, a_row, res_r[b])), list(map(le, n_row, grid_r))
        if left != right:
            for c in rng:
                if left[c] != right[c]:
                    tup = (pts[a], pts[b], pts[c])
                    report.register(Violation(law, tup, left[c], right[c], "biconditional mismatch"))
    return report


def oracle_agreement_check(f: NormFamily, g: GridSpec) -> LawReport:
    """Closed-form residuum against the scanning oracle on all grid pairs."""
    report = LawReport("residuum-oracle")
    for x, y in itertools.product(g.points(), repeat=2):
        report.checked += 1
        got, expected = residuum(f, x, y), residuum_oracle(f, x, y, g)
        if got != expected:
            report.register(Violation("residuum-oracle", (x, y), got, expected))
    return report


def norm_axioms_check(f: NormFamily, g: GridSpec) -> list[LawReport]:
    """Associativity, commutativity, monotonicity, and the boundary condition."""
    from .tables import ValueTable, square

    pts = g.points()
    m = len(pts)
    rng = range(m)
    table = ValueTable(pts)
    values = table.values
    norm = table.operation(closed_form(f))
    grid_tab = square(norm, m)
    cols = [list(col) for col in zip(*grid_tab)]

    # Each law compares whole rows over its last variable; only a row that
    # differs is swept again, to register its witnesses in tuple order.
    assoc = LawReport("associativity", m**3)
    for x, y in itertools.product(rng, repeat=2):
        lhs, rhs = norm.row(grid_tab[x][y], rng), norm.row(x, grid_tab[y])
        if lhs != rhs:
            for z in rng:
                if lhs[z] != rhs[z]:
                    assoc.register(
                        Violation("associativity", (pts[x], pts[y], pts[z]), values[lhs[z]], values[rhs[z]])
                    )
    comm = LawReport("commutativity", m**2)
    for x in rng:
        row, col = grid_tab[x], cols[x]
        if row != col:
            for y in rng:
                if row[y] != col[y]:
                    comm.register(Violation("commutativity", (pts[x], pts[y]), values[row[y]], values[col[y]]))
    mono = LawReport("monotonicity", m * m * (m + 1) // 2)
    ranks = table.ranked(grid_tab)
    for x1, x2 in itertools.combinations_with_replacement(rng, 2):
        if not all(map(le, ranks[x1], ranks[x2])):
            row_lo, row_hi = grid_tab[x1], grid_tab[x2]
            for y in rng:
                if not le(ranks[x1][y], ranks[x2][y]):
                    mono.register(
                        Violation("monotonicity", (pts[x1], pts[x2], pts[y]), values[row_lo[y]], values[row_hi[y]])
                    )
    unit_idx = m - 1 if f.side is NormSide.TNORM else 0
    boundary = LawReport("boundary")
    for x in rng:
        boundary.checked += 1
        got = grid_tab[unit_idx][x]
        if got != x:
            boundary.register(Violation("boundary", (pts[unit_idx], pts[x]), values[got], pts[x]))
    return [assoc, comm, mono, boundary]


def tuples_checked(kinds, grid: int) -> int:
    """The sum of the ``checked`` counts of the reports ``reslat norms``
    makes for ``kinds`` at denominator ``grid``: the norm axioms and duality
    of each kind, adjointness and the oracle (at most at MAX_ORACLE_GRID) of
    each residuated kind, and the two ordering chains."""
    m, oracle = grid + 1, min(grid, MAX_ORACLE_GRID) + 1
    axioms = m**3 + m**2 + m * m * (m + 1) // 2 + m
    residuated = sum(kind is not NormKind.DRASTIC for kind in kinds)
    return len(kinds) * (2 * axioms + m**2) + residuated * (m**3 + oracle**2) + 2 * 3 * m**2


def ordering_chain_check(side: NormSide, g: GridSpec) -> LawReport:
    """Pointwise ordering of the four families on all grid pairs.

    t-norms: drastic <= lukasiewicz <= product <= goedel;
    s-norms the reverse chain: goedel <= product <= lukasiewicz <= drastic.
    """
    from .tables import ValueTable, square

    if side is NormSide.TNORM:
        chain = [NormKind.DRASTIC, NormKind.LUKASIEWICZ, NormKind.PRODUCT, NormKind.GOEDEL]
    else:
        chain = [NormKind.GOEDEL, NormKind.PRODUCT, NormKind.LUKASIEWICZ, NormKind.DRASTIC]
    families = [NormFamily(k, side) for k in chain]
    pts = g.points()
    m = len(pts)
    table = ValueTable(pts)
    values = table.values
    tabs = [square(table.operation(closed_form(f)), m) for f in families]
    ranks = table.ranked([row for tab in tabs for row in tab])
    rank_tabs = [ranks[k : k + m] for k in range(0, len(ranks), m)]
    rng = range(m)
    report = LawReport("ordering-chain", (len(families) - 1) * m**2)
    for x in rng:
        rows = [rank_tab[x] for rank_tab in rank_tabs]
        if all(all(map(le, lo, hi)) for lo, hi in zip(rows, rows[1:])):
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


def duality_check(kind: NormKind, g: GridSpec) -> LawReport:
    """Duality identity on all grid pairs for one family kind: the grid is
    closed under complement, and grid id k complements to id N - k."""
    from .tables import ValueTable, square

    pts = g.points()
    top = len(pts) - 1
    rng, flipped = range(len(pts)), range(top, -1, -1)
    report = LawReport("duality", len(pts) ** 2)
    table = ValueTable(pts)
    values = table.values
    s_norm = table.operation(closed_form(NormFamily.s_norm(kind)))
    t_norm = table.operation(closed_form(NormFamily.t_norm(kind)))
    # Row 0 of this operation maps the id of y to the id of 1 - y.
    complement = table.operation(lambda _, y: y.complement())
    for x in rng:
        s_row = s_norm.row(x, rng)
        t_row = complement.row(0, t_norm.row(top - x, flipped))
        if s_row != t_row:
            for y in rng:
                if s_row[y] != t_row[y]:
                    report.register(Violation("duality", (pts[x], pts[y]), values[s_row[y]], values[t_row[y]]))
    return report
