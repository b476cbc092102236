"""Golden reports: axioms, derived laws and radius lemmas, compared in full.

The corpus is the shipped fixtures, ``l4-corrupt``, and seeded single-entry
``star`` and ``arrow`` mutants of L6 and G6, each together with its order
dual, plus the grid checkers of the three residuated families at
denominator 4.  Every report is compared through ``to_dict()``, so a change
of witness, witness order, note, ``checked`` or ``failures`` shows.

Regenerate ``tests/data/reports_golden.json`` with
``python tests/test_reports_golden.py`` only when a report is meant to change.
"""

import json
import random
from pathlib import Path

import pytest

from reslat.finite import (
    FiniteAlgebra,
    algebra_from_document,
    check_axioms,
    check_derived_laws,
    dualize_algebra,
    load_algebra,
)
from reslat.fixtures import goedel_chain, lukasiewicz_chain, mutant
from reslat.metric import SAlgebra, dbl_axioms_check, dbl_laws_check
from reslat.topology import check_radius_lemmas
from reslat.unitval import GridSpec

GOLDEN = Path(__file__).resolve().parent / "data" / "reports_golden.json"
FIXTURES_DIR = Path(__file__).resolve().parents[1] / "fixtures"
FIXTURES = ("l2", "l4", "g3", "bool2", "bool4", "l4-corrupt")
MUTANTS_PER_TABLE = 3
FAMILIES = ("lukasiewicz", "goedel", "product")
GOLDEN_REPORTS = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def mutants(name: str, alg: FiniteAlgebra, rng: random.Random):
    """Single star or arrow entries replaced by another element."""
    for field in ("monoid", "residuum"):
        for _ in range(MUTANTS_PER_TABLE):
            i, j = rng.randrange(alg.n), rng.randrange(alg.n)
            yield f"{name}~{field}-{i}-{j}", mutant(alg, field, i, j, rng)


def build_algebras() -> dict[str, FiniteAlgebra]:
    algebras = {name: load_algebra(FIXTURES_DIR / f"{name}.alg") for name in FIXTURES}
    rng = random.Random(20190101)
    algebras.update(mutants("L6", algebra_from_document(lukasiewicz_chain(6)), rng))
    algebras.update(mutants("G6", algebra_from_document(goedel_chain(6)), rng))
    for name, alg in list(algebras.items()):
        algebras[f"{name}-dual"] = dualize_algebra(alg)
    return algebras


def build_reports() -> dict[str, list[dict]]:
    out = {}
    for name, alg in build_algebras().items():
        out[f"{name}/axioms"] = check_axioms(alg)
        out[f"{name}/derived"] = check_derived_laws(alg)
        out[f"{name}/radius"] = check_radius_lemmas(alg)
    for family in FAMILIES:
        alg, grid = SAlgebra.of(family), GridSpec(4)
        out[f"{family}/grid-axioms"] = dbl_axioms_check(alg, grid)
        out[f"{family}/grid-laws"] = dbl_laws_check(alg, grid)
    return {key: [r.to_dict() for r in reports] for key, reports in out.items()}


@pytest.fixture(scope="module")
def current() -> dict[str, list[dict]]:
    return build_reports()


def test_same_cases(current):
    assert sorted(current) == sorted(GOLDEN_REPORTS)


def test_corpus_has_failing_reports():
    failing = {key for key, reports in GOLDEN_REPORTS.items() if any(r["failures"] for r in reports)}
    assert any(key.endswith("-dual/derived") for key in failing)
    assert any(key.endswith("-dual/axioms") for key in failing)
    assert any(key.endswith("/axioms") and "-dual" not in key for key in failing)


@pytest.mark.parametrize("key", sorted(GOLDEN_REPORTS))
def test_reports_match_golden(current, key):
    assert current[key] == GOLDEN_REPORTS[key]


def dump(reports: dict[str, list[dict]]) -> str:
    """JSON with one report per line, so a changed report is a one-line diff."""
    cases = (
        f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(r) for r in case) + "\n]"
        for key, case in reports.items()
    )
    return "{\n" + ",\n".join(cases) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump(build_reports()), encoding="utf-8")
