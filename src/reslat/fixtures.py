"""Builders for finite algebras, and the fixtures that ship with the repository.

Every finite BL-chain is an ordinal sum of finite Lukasiewicz chains
(Agliano and Montagna, 2003), so :func:`ordinal_sum` builds them all.
Products and single-entry mutants are built from finite algebras.  The
shipped fixtures self-validate against the axiom and derived-law checkers
before being written out.  The deliberately corrupted chain skips
validation; it exists so that the checkers have something to catch.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import TheoremViolation
from .finite import FiniteAlgebra, algebra_from_document, check_axioms, check_derived_laws
from .reports import all_ok


def ordinal_sum(sizes) -> dict:
    """The BL-chain that stacks Lukasiewicz chains of ``sizes[0]``,
    ``sizes[1]``, ... elements from the bottom up, neighbours sharing one
    element.  Its ``n`` elements are ``k/(n-1)``; each ``x > 0`` lies in the
    summand ``(lo, hi]`` that holds it, and 0 in the first.  The star is
    Lukasiewicz inside a summand and the meet across summands."""
    if not sizes:
        raise ValueError("an ordinal sum needs at least one summand")
    if min(sizes) < 2:
        raise ValueError(f"each summand needs at least 2 elements, not {min(sizes)}")
    lo_of, hi_of = [0], [sizes[0] - 1]  # the summand (lo, hi] of each carrier index
    for size in sizes:
        lo = len(lo_of) - 1
        lo_of += [lo] * (size - 1)
        hi_of += [lo + size - 1] * (size - 1)
    top = len(lo_of) - 1

    def star(x, y):
        lo, hi = lo_of[max(x, y)], hi_of[max(x, y)]
        return max(lo, x + y - hi) if min(x, y) >= lo else min(x, y)

    def arrow(x, y):
        if x <= y:
            return top
        return hi_of[x] - x + y if y >= lo_of[x] else y

    labels = [str(Fraction(k, top)) for k in range(top + 1)]
    elements = range(top + 1)
    return {
        "signature": "BL",
        "carrier": labels,
        "bottom": labels[0],
        "top": labels[-1],
        "leq": [[labels[i], labels[j]] for i in elements for j in elements if i < j],
        "star": [[labels[star(x, y)] for y in elements] for x in elements],
        "arrow": [[labels[arrow(x, y)] for y in elements] for x in elements],
    }


def _chain_size(size: int) -> int:
    if size < 2:
        raise ValueError(f"a chain needs at least 2 elements, not {size}")
    return size


def lukasiewicz_chain(size: int) -> dict:
    """Equally spaced chain 0, 1/(size-1), ..., 1 with the Lukasiewicz tables."""
    return ordinal_sum([_chain_size(size)])


def goedel_chain(size: int) -> dict:
    """Equally spaced chain 0, 1/(size-1), ..., 1 with the Goedel tables."""
    return ordinal_sum([2] * (_chain_size(size) - 1))


def boolean_algebra(bits: int) -> dict:
    """The powerset algebra on ``bits`` generators, with * = meet."""
    if not 1 <= bits <= 8:
        raise ValueError(f"a Boolean algebra needs 1 to 8 generators, not {bits}")
    names = "abcdefgh"[:bits]
    elements = []
    for mask in range(1 << bits):
        elements.append(frozenset(i for i in range(bits) if mask >> i & 1))
    elements.sort(key=lambda s: (len(s), sorted(s)))

    def label(s):
        if not s:
            return "0"
        if len(s) == bits:
            return "1"
        return "".join(names[i] for i in sorted(s))

    full = frozenset(range(bits))
    labels = [label(s) for s in elements]
    pairs = [
        [label(x), label(y)]
        for x in elements
        for y in elements
        if x != y and x <= y
    ]
    return {
        "signature": "BL",
        "carrier": labels,
        "bottom": "0",
        "top": "1",
        "leq": pairs,
        "star": [[label(x & y) for y in elements] for x in elements],
        "arrow": [[label((full - x) | y) for y in elements] for x in elements],
    }


def product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Direct product of two algebras of one signature, with componentwise
    order and tables; pair (i, j) has index i * b.n + j and label "x|y"."""
    if a.signature is not b.signature:
        raise ValueError(f"cannot multiply a {a.signature.value}-algebra by a {b.signature.value}-algebra")
    pairs = list(itertools.product(a.elements(), b.elements()))

    def table(ta, tb):
        return [[ta[i1][i2] * b.n + tb[j1][j2] for i2, j2 in pairs] for i1, j1 in pairs]

    return FiniteAlgebra(
        [f"{a.labels[i]}|{b.labels[j]}" for i, j in pairs],
        [[a.leq[i1][i2] and b.leq[j1][j2] for i2, j2 in pairs] for i1, j1 in pairs],
        table(a.monoid, b.monoid),
        table(a.residuum, b.residuum),
        a.signature,
        a.bottom * b.n + b.bottom,
        a.top * b.n + b.top,
    )


def mutant(alg: FiniteAlgebra, table: str, i: int, j: int, rng) -> FiniteAlgebra:
    """``alg`` with entry (i, j) of its ``"monoid"`` or ``"residuum"`` table
    replaced by ``rng.choice`` of the other elements, in carrier order."""
    rows = [list(row) for row in getattr(alg, table)]
    rows[i][j] = rng.choice([v for v in alg.elements() if v != rows[i][j]])
    tables = {"monoid": alg.monoid, "residuum": alg.residuum, table: rows}
    return FiniteAlgebra(alg.labels, alg.leq, tables["monoid"], tables["residuum"], alg.signature, alg.bottom, alg.top)


def corrupt_lukasiewicz_4() -> dict:
    """L4 with the (2/3 -> 1/3) residuum entry flipped; breaks BL3/BL4."""
    doc = lukasiewicz_chain(4)
    row = doc["carrier"].index("2/3")
    col = doc["carrier"].index("1/3")
    doc["arrow"][row][col] = "1/3"
    return doc


def _validated(doc: dict) -> dict:
    alg = algebra_from_document(doc)
    if not all_ok(check_axioms(alg)) or not all_ok(check_derived_laws(alg)):
        raise TheoremViolation(f"fixture with carrier {alg.labels} fails self-validation")
    return doc


def build_all() -> dict[str, dict]:
    """All shipped fixtures, keyed by file stem; valid ones self-validate."""
    return {
        "l2": _validated(lukasiewicz_chain(2)),
        "l4": _validated(lukasiewicz_chain(4)),
        "g3": _validated(goedel_chain(3)),
        "bool2": _validated(boolean_algebra(1)),
        "bool4": _validated(boolean_algebra(2)),
        "l4-corrupt": corrupt_lukasiewicz_4(),
    }


def write_fixture_files(directory) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, doc in build_all().items():
        path = directory / f"{stem}.alg"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        written.append(path)
    return written


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    target = args[0] if args else "fixtures"
    for path in write_fixture_files(target):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
