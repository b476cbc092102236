"""Builders for the finite algebra fixtures that ship with the repository.

Tables are derived from closed forms (Lukasiewicz / Goedel chains, Boolean
algebras), then self-validated against the axiom and derived-law checkers
before being written out.  The deliberately corrupted chain skips
validation; it exists so that the checkers have something to catch.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import TheoremViolation
from .finite import algebra_from_document, check_axioms, check_derived_laws
from .reports import all_ok


def _chain_document(values: list[Fraction], star, arrow) -> dict:
    labels = [str(v) for v in values]
    pairs = [
        [labels[i], labels[j]]
        for i in range(len(values))
        for j in range(len(values))
        if i != j and values[i] <= values[j]
    ]
    return {
        "signature": "BL",
        "carrier": labels,
        "bottom": labels[0],
        "top": labels[-1],
        "leq": pairs,
        "star": [[str(star(x, y)) for y in values] for x in values],
        "arrow": [[str(arrow(x, y)) for y in values] for x in values],
    }


def lukasiewicz_chain(size: int) -> dict:
    """Equally spaced chain 0, 1/(size-1), ..., 1 with the Lukasiewicz tables."""
    values = [Fraction(k, size - 1) for k in range(size)]
    return _chain_document(
        values,
        star=lambda x, y: max(Fraction(0), x + y - 1),
        arrow=lambda x, y: min(Fraction(1), 1 - x + y),
    )


def goedel_chain(size: int) -> dict:
    values = [Fraction(k, size - 1) for k in range(size)]
    return _chain_document(
        values,
        star=min,
        arrow=lambda x, y: Fraction(1) if x <= y else y,
    )


def boolean_algebra(bits: int) -> dict:
    """The powerset algebra on ``bits`` generators, with * = meet."""
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
