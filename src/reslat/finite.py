"""Table-driven finite algebras in the BL and DBL signatures.

An algebra is given extensionally: element labels, an order relation, a
monoid table, and a residuum table.  Meets and joins are computed from the
order at construction time, and all structural invariants (partial order,
bounded lattice, table closure) are validated eagerly.  Law properties
(monoid axioms, residuation, the derived law suites) are checked separately
so that a structurally sound but law-breaking table still loads and can be
reported on.

Element labels are opaque strings; the order of the carrier list fixes the
index order used everywhere, including witness ordering.
"""

from __future__ import annotations

import itertools
import json
import sys
from enum import Enum
from pathlib import Path

from .errors import NotALattice, NotAPartialOrder, ParseError, TableOutOfRange, cut
from .laws import D_LAWS, LawContext, as_bl, check_signature_axioms, run_catalogue
from .reports import LawReport


class Signature(Enum):
    BL = "BL"
    DBL = "DBL"


class FiniteAlgebra:
    def __init__(self, labels, leq, monoid, residuum, signature: Signature, bottom: int, top: int):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        if self.n < 2:
            raise ParseError("carrier must have at least two elements")
        if len(set(self.labels)) != self.n:
            raise ParseError("carrier labels must be unique")
        self.leq = tuple(tuple(row) for row in leq)
        self.monoid = tuple(tuple(row) for row in monoid)
        self.residuum = tuple(tuple(row) for row in residuum)
        self.signature = signature
        self.bottom = bottom
        self.top = top
        self._index = {lbl: i for i, lbl in enumerate(self.labels)}
        down = self._validate_order()
        self._validate_tables()
        self._meet, self._join = self._compute_bounds(down)

    # -- structural validation -------------------------------------------

    def _validate_order(self) -> list[int]:
        """Validate the order; return the down-set of each element as a bitmask."""
        n, leq = self.n, self.leq
        if len(leq) != n or any(len(row) != n for row in leq):
            raise ParseError("leq matrix must be n x n")
        for i in range(n):
            if not leq[i][i]:
                raise NotAPartialOrder(f"missing reflexive pair ({cut(self.labels[i])}, {cut(self.labels[i])})")
        for i, j in itertools.product(range(n), repeat=2):
            if i != j and leq[i][j] and leq[j][i]:
                x, y = cut(self.labels[i]), cut(self.labels[j])
                raise NotAPartialOrder(f"antisymmetry fails: {x} <= {y} <= {x}")
        # Transitive iff j <= k puts down[j] in down[k]; a failure names its first triple.
        down = [sum(1 << i for i in range(n) if leq[i][j]) for j in range(n)]
        if any(down[j] & ~down[k] for j, k in itertools.product(range(n), repeat=2) if leq[j][k]):
            for i, j, k in itertools.product(range(n), repeat=3):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    x, y, z = (cut(self.labels[v]) for v in (i, j, k))
                    raise NotAPartialOrder(f"transitivity fails at ({x}, {y}, {z})")
        for i in range(n):
            if not leq[self.bottom][i]:
                raise NotALattice(f"bottom {cut(self.labels[self.bottom])} is not below {cut(self.labels[i])}")
            if not leq[i][self.top]:
                raise NotALattice(f"top {cut(self.labels[self.top])} is not above {cut(self.labels[i])}")
        return down

    def _validate_tables(self):
        n = self.n
        for name, table in (("star", self.monoid), ("arrow", self.residuum)):
            if len(table) != n or any(len(row) != n for row in table):
                raise ParseError(f"{name} table must be n x n")
            for row in table:
                for entry in row:
                    if not isinstance(entry, int) or not 0 <= entry < n:
                        raise TableOutOfRange(f"{name} table entry {entry!r} is not a carrier index")

    def _compute_bounds(self, down: list[int]):
        n, leq = self.n, self.leq
        # Down-sets and up-sets are distinct by antisymmetry.  The meet of i
        # and j is the element whose down-set is down[i] & down[j], and no
        # element has it when the pair has no meet; joins likewise.
        up = [sum(1 << k for k in range(n) if leq[i][k]) for i in range(n)]
        by_down, by_up = {d: i for i, d in enumerate(down)}, {u: i for i, u in enumerate(up)}
        meet = tuple(tuple(by_down.get(d & e) for e in down) for d in down)
        join = tuple(tuple(by_up.get(u & v) for v in up) for u in up)
        for i, j in itertools.product(range(n), repeat=2):
            for name, table in (("meet", meet), ("join", join)):
                if table[i][j] is None:
                    raise NotALattice(f"no unique {name} for ({cut(self.labels[i])}, {cut(self.labels[j])})")
        return meet, join

    # -- element access ----------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ParseError(f"unknown element label {cut(repr(label))}") from None

    def elements(self):
        return range(self.n)

    def le(self, i: int, j: int) -> bool:
        return self.leq[i][j]

    def lt(self, i: int, j: int) -> bool:
        """Strict lattice order: comparable and unequal."""
        return i != j and self.leq[i][j]

    def star(self, i: int, j: int) -> int:
        return self.monoid[i][j]

    def arrow(self, i: int, j: int) -> int:
        return self.residuum[i][j]

    def meet(self, i: int, j: int) -> int:
        return self._meet[i][j]

    def join(self, i: int, j: int) -> int:
        return self._join[i][j]

    def bires(self, i: int, j: int) -> int:
        """(i -> j) * (j -> i): the biresiduum (BL) or induced distance (DBL)."""
        return self.star(self.arrow(i, j), self.arrow(j, i))

    def pair_bires(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        return self.star(self.bires(a[0], b[0]), self.bires(a[1], b[1]))

    def _key(self):
        return (self.labels, self.leq, self.monoid, self.residuum, self.signature, self.bottom, self.top)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteAlgebra):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FiniteAlgebra({self.signature.value}, n={self.n}, labels={list(self.labels)})"


# -- document I/O -----------------------------------------------------------

_REQUIRED = ("carrier", "leq", "star", "arrow", "bottom", "top", "signature")

# Largest carrier a document may declare.  Loading validates the order and
# computes meets and joins from down-set bitmasks, in O(n^2) steps on
# n-bit integers: about 2.5 ms at n = 64 and 10 ms at n = 128 (Python 3.11, Xeon).
MAX_CARRIER = 64


def algebra_from_document(doc) -> FiniteAlgebra:
    if not isinstance(doc, dict):
        raise ParseError("algebra document must be a mapping")
    missing = [f for f in _REQUIRED if f not in doc]
    if missing:
        raise ParseError(f"missing fields: {', '.join(missing)}")
    carrier = doc["carrier"]
    if not isinstance(carrier, list) or not all(isinstance(x, str) for x in carrier):
        raise ParseError("carrier must be an array of strings")
    if len(carrier) > MAX_CARRIER:
        raise ParseError(f"carrier has {len(carrier)} elements; at most {MAX_CARRIER} are supported")
    index = {lbl: i for i, lbl in enumerate(carrier)}
    if len(index) != len(carrier):
        raise ParseError("carrier labels must be unique")
    n = len(carrier)

    try:
        signature = Signature(doc["signature"])
    except ValueError:
        raise ParseError(f"signature must be 'BL' or 'DBL', got {cut(repr(doc['signature']))}") from None

    def known(label, where):
        if not isinstance(label, str) or label not in index:
            raise ParseError(f"unknown label {cut(repr(label))} in {where}")
        return index[label]

    bottom = known(doc["bottom"], "bottom")
    top = known(doc["top"], "top")

    leq = [[i == j for j in range(n)] for i in range(n)]  # reflexive closure implied
    if not isinstance(doc["leq"], list):
        raise ParseError("leq must be an array of [a, b] pairs")
    for pair in doc["leq"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"leq entry {cut(repr(pair))} is not a pair")
        a, b = pair
        leq[known(a, "leq")][known(b, "leq")] = True

    def table(field):
        raw = doc[field]
        if not isinstance(raw, list) or len(raw) != n or any(
            not isinstance(row, list) or len(row) != n for row in raw
        ):
            raise ParseError(f"{field} table must be an n x n array")
        out = []
        for row in raw:
            idx_row = []
            for entry in row:
                if not isinstance(entry, str) or entry not in index:
                    raise TableOutOfRange(f"unknown label {cut(repr(entry))} in {field} table")
                idx_row.append(index[entry])
            out.append(idx_row)
        return out

    return FiniteAlgebra(carrier, leq, table("star"), table("arrow"), signature, bottom, top)


def algebra_to_document(alg: FiniteAlgebra) -> dict:
    pairs = [
        [alg.labels[i], alg.labels[j]]
        for i, j in itertools.product(range(alg.n), repeat=2)
        if i != j and alg.leq[i][j]
    ]
    return {
        "signature": alg.signature.value,
        "carrier": list(alg.labels),
        "bottom": alg.labels[alg.bottom],
        "top": alg.labels[alg.top],
        "leq": pairs,
        "star": [[alg.labels[v] for v in row] for row in alg.monoid],
        "arrow": [[alg.labels[v] for v in row] for row in alg.residuum],
    }


def loads_algebra(text: str) -> FiniteAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid algebra document: {exc}") from None
    except RecursionError:
        raise ParseError("invalid algebra document: nesting too deep") from None
    except ValueError:  # the one other ValueError of json.loads: an integer past the int/str limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"invalid algebra document: a number with more than {limit} digits") from None
    return algebra_from_document(doc)


def load_algebra(path) -> FiniteAlgebra:
    return loads_algebra(Path(path).read_text(encoding="utf-8"))


# -- axiom and law checking ---------------------------------------------------

def dbl_context(alg: FiniteAlgebra) -> LawContext:
    """The algebra in the DBL form the law checkers take: itself, or, for a
    BL-algebra, its order dual, without rebuilding it.  Its tables are lists,
    whose bound ``__getitem__`` a C ``map`` calls faster than a tuple's."""
    fmt = lambda v: str(v) if isinstance(v, bool) else alg.labels[v]
    star, res, meet, join, le = (list(map(list, t)) for t in (alg.monoid, alg.residuum, alg._meet, alg._join, alg.leq))
    if alg.signature is Signature.DBL:
        return LawContext(alg.elements, star, res, meet, join, le, alg.bottom, alg.top, fmt)
    return LawContext(alg.elements, star, res, join, meet, list(map(list, zip(*le))), alg.top, alg.bottom, fmt)


def check_axioms(alg: FiniteAlgebra) -> list[LawReport]:
    """The five signature axioms, exhaustively over the carrier: DBL1..DBL5,
    or BL1..BL5 as DBL1..DBL5 on the order dual."""
    bl = alg.signature is Signature.BL
    reports = check_signature_axioms(dbl_context(alg), bl)
    return as_bl(reports) if bl else reports


def check_derived_laws(alg: FiniteAlgebra, ids=None) -> list[LawReport]:
    """D1..D15 (DBL signature) or B1..B15 (BL signature, as D1..D15 on the
    order dual), exhaustively.  ``ids`` picks laws by the algebra's own
    prefix, D or B; any other id is refused with a ValueError.

    The arity-4 laws sweep n^4 tuples; carriers up to n = 24 stay practical.
    """
    if alg.signature is Signature.DBL:
        return run_catalogue(dbl_context(alg), D_LAWS, ids)
    if ids is not None:
        b_laws = {"B" + law_id[1:] for law_id, *_ in D_LAWS}
        wrong = [i for i in ids if i.upper() not in b_laws]
        if wrong:
            raise ValueError(f"a BL-algebra has only the laws B1..B15, not {', '.join(wrong)}")
        ids = ["D" + i[1:] for i in ids]
    return as_bl(run_catalogue(dbl_context(alg), D_LAWS, ids))


def dualize_algebra(alg: FiniteAlgebra) -> FiniteAlgebra:
    """Order-dual relabelling: reverse the order, swap bottom/top, keep the
    monoid and residuum tables verbatim, toggle the signature.

    The constructor revalidates the result structurally; that a BL-algebra
    dualizes to a DBL-algebra (and back) is checked by the test suite via
    check_axioms rather than assumed.
    """
    toggled = Signature.DBL if alg.signature is Signature.BL else Signature.BL
    return FiniteAlgebra(alg.labels, tuple(zip(*alg.leq)), alg.monoid, alg.residuum, toggled, alg.top, alg.bottom)


def biresiduum(alg: FiniteAlgebra, a: str, b: str) -> str:
    """Label-level biresiduum: (a -> b) * (b -> a)."""
    return alg.labels[alg.bires(alg.index(a), alg.index(b))]


def pair_biresiduum(alg: FiniteAlgebra, a: tuple[str, str], b: tuple[str, str]) -> str:
    """Label-level pair operator: (a1 <-> b1) * (a2 <-> b2)."""
    ai = (alg.index(a[0]), alg.index(a[1]))
    bi = (alg.index(b[0]), alg.index(b[1]))
    return alg.labels[alg.pair_bires(ai, bi)]
