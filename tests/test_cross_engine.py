"""The finite engine and the grid engine agree on closed grids.

On Lukasiewicz and Goedel the grid ``k/N`` is closed under the s-norm and
its residuum, so it is a finite DBL-chain: the order dual of the BL-chain
``lukasiewicz_chain(N + 1)`` or ``goedel_chain(N + 1)``, each label ``v``
read as the grid point ``1 - v``.  Listed from the top, that chain's
carrier index ``k`` is the grid id of ``k/N``, so both engines sweep the
same tuples in the same order, and the signature axioms and the D-laws
must give the same documents, witness for witness.  The same holds when
one entry of the star is changed on both sides.
"""

import random
from fractions import Fraction

import pytest

from reslat.finite import algebra_from_document, check_axioms, check_derived_laws, dualize_algebra
from reslat.fixtures import goedel_chain, lukasiewicz_chain
from reslat.metric import SAlgebra, dbl_axioms_check, dbl_laws_check
from reslat.unitval import GridSpec, UnitValue

CHAINS = {"lukasiewicz": lukasiewicz_chain, "goedel": goedel_chain}


def chain_from_the_top(family: str, n: int) -> dict:
    """The BL-chain with ``n + 1`` elements, its carrier and tables listed from 1 down to 0."""
    doc = CHAINS[family](n + 1)
    flipped = lambda rows: [row[::-1] for row in rows[::-1]]
    return {**doc, "carrier": doc["carrier"][::-1], "star": flipped(doc["star"]), "arrow": flipped(doc["arrow"])}


def star_mutant(doc: dict, seed: int) -> tuple[int, int, int]:
    """Change one star entry of ``doc`` in place to a different element;
    return its row, column and new value as carrier indices."""
    rng, carrier = random.Random(seed), doc["carrier"]
    i, j = rng.randrange(len(carrier)), rng.randrange(len(carrier))
    k = rng.choice([k for k, label in enumerate(carrier) if label != doc["star"][i][j]])
    doc["star"][i][j] = carrier[k]
    return i, j, k


def as_grid_document(reports) -> list[dict]:
    """The reports' documents with each finite label ``v`` read as ``1 - v``."""
    grid = lambda text: text if text in ("True", "False") else str(1 - Fraction(text))
    docs = [report.to_dict() for report in reports]
    for doc in docs:
        for witness in doc["witnesses"]:
            witness["args"] = list(map(grid, witness["args"]))
            witness["lhs"], witness["rhs"] = grid(witness["lhs"]), grid(witness["rhs"])
    return docs


@pytest.mark.parametrize("mutant", [None, 1, 2], ids=["valid", "mutant-1", "mutant-2"])
@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("family", sorted(CHAINS))
def test_closed_grid_and_finite_chain_give_the_same_reports(monkeypatch, family, n, mutant):
    doc = chain_from_the_top(family, n)
    alg = SAlgebra.of(family)
    if mutant is not None:
        i, j, k = star_mutant(doc, seed=1000 * n + mutant)
        star, point = alg.star, (UnitValue(i, n), UnitValue(j, n))
        patched = lambda x, y: UnitValue(k, n) if (x, y) == point else star(x, y)
        # The grid law context reads the s-norm through SAlgebra.star.
        monkeypatch.setattr(SAlgebra, "star", property(lambda self: patched))
    finite = dualize_algebra(algebra_from_document(doc))
    g = GridSpec(n)
    axioms, laws = check_axioms(finite), check_derived_laws(finite)
    assert as_grid_document(axioms) == [report.to_dict() for report in dbl_axioms_check(alg, g)]
    assert as_grid_document(laws) == [report.to_dict() for report in dbl_laws_check(alg, g)]
    failures = sum(report.failures for report in axioms + laws)
    assert (failures == 0) == (mutant is None)
