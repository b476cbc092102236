"""The JSON reports of the finite engine and of the grid law sweep, pinned by sha256.

The algebras are the ones where the law contexts' tables matter: chains of
24 and 16 elements, the 16-element Boolean algebra and two products of
chains (non-chains, so their order duals read a transposed order), each
with its order dual, and seeded single-entry ``star`` and ``arrow`` mutants
of L3xG3.  The grid command sweeps D1..D15 on the product grid at 16, where
the law context meets values off the grid.  Any byte of the report or exit
code that moves shows here.

Regenerate with ``python tests/test_finite_digests.py`` only when a report
is meant to change.
"""

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from reslat.cli import main
from reslat.finite import FiniteAlgebra, algebra_from_document, algebra_to_document, dualize_algebra
from reslat.fixtures import boolean_algebra, goedel_chain, lukasiewicz_chain, mutant, product


def mutants(name: str, alg: FiniteAlgebra, rng: random.Random):
    """Two star and two arrow tables, each with one entry replaced by another element."""
    for field in ("monoid", "monoid", "residuum", "residuum"):
        i, j = rng.randrange(alg.n), rng.randrange(alg.n)
        yield f"{name}~{field}-{i}-{j}", mutant(alg, field, i, j, rng)


def build_algebras() -> dict[str, FiniteAlgebra]:
    chain = algebra_from_document
    bases = {
        "L24": chain(lukasiewicz_chain(24)),
        "G16": chain(goedel_chain(16)),
        "B16": chain(boolean_algebra(4)),
        "L3xG3": product(chain(lukasiewicz_chain(3)), chain(goedel_chain(3))),
        "G4xL2": product(chain(goedel_chain(4)), chain(lukasiewicz_chain(2))),
    }
    algebras = dict(bases)
    for name, alg in bases.items():
        algebras[f"{name}-dual"] = dualize_algebra(alg)
    algebras.update(mutants("L3xG3", bases["L3xG3"], random.Random(20261019)))
    return algebras


ALGEBRAS = build_algebras()
GRID_LAWS = ("metric", "--family", "product", "--grid", "4", "--grid4", "2", "--laws", "d1..d15", "--laws-grid", "16")

# Recorded from the engine before its law contexts read tables.
DIGESTS = {
    "B16": (0, "218b2cb1f5d0e75e3bbc97943614490d6094f0b1714514f8c100961678b8be24"),
    "B16-dual": (0, "05d7b60ea843d569594483348e867d68409f1ef3024568368713ada58c82d21b"),
    "G16": (0, "90ed15229710f5729a8074ed7a894bd4bfe8295ec4d1a3b0426f630952c290fa"),
    "G16-dual": (0, "1e08ec2645918478e74ded81e5098d29d05c5fcc2522956adf329f95f72c99e9"),
    "G4xL2": (0, "ea025a52bc72c7ba538898ae82e4faa6c2c4f0cb5e0d7dea0b0686030482399b"),
    "G4xL2-dual": (0, "0d7502784dcc0115d69af4b19ced288627fb06ad800693f71255251905159ea2"),
    "L24": (0, "d40a9d932e9e7ef39c0af936b4f7bbc82eb38e6338acf1b0dfc440ca5d7e81a4"),
    "L24-dual": (0, "92a144bbf9f333453e424e326ed82ee8881566acfc736f150e47692fd9aa1ce2"),
    "L3xG3": (0, "cb29c674baf1e5c3415a0af109d1c70b2de46d725dca531e492db4d025fcb46c"),
    "L3xG3-dual": (0, "9227200ba96f23fab3c0b3714b19bc53086b8cb1131f53290cd4fcaf0cf9fa61"),
    "L3xG3~monoid-5-1": (1, "0cb0faba267d03517da49da4e7932c9c8f500480016a84ccf5d33e00dedd1f70"),
    "L3xG3~monoid-7-8": (1, "ef2ef85153c9ee596ab2890ae0173beaa39d192978ac5419ad7b13b9c40ef834"),
    "L3xG3~residuum-2-0": (1, "e76b93775303956daea545f28fadb047f3df214f4cb1222767605f52132438b4"),
    "L3xG3~residuum-4-0": (1, "758c6f7d1a7d449fcc0e9263e6f05c090e4aff60f9260b5c9a49d962d7931883"),
    "grid-laws": (0, "29af35cd6cf17c69c52f07d3de6721805b6690e7b5b2845837611d11261f1191"),
}


def run(argv) -> tuple[int, str]:
    """The exit code of ``reslat ARGV --format json`` and the sha256 of its stdout."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main([*argv, "--format", "json"])
    return code, hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def check(name: str, directory: Path) -> tuple[int, str]:
    path = directory / f"{name}.alg"
    path.write_text(json.dumps(algebra_to_document(ALGEBRAS[name])), encoding="utf-8")
    return run(["algebra", "check", str(path)])


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_algebra_check_json_is_byte_identical(tmp_path, name):
    assert check(name, tmp_path) == DIGESTS[name]


def test_grid_law_sweep_json_is_byte_identical():
    assert run(GRID_LAWS) == DIGESTS["grid-laws"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(ALGEBRAS):
            print(f"    {name!r}: {check(name, Path(tmp))!r},")
    print(f"    'grid-laws': {run(GRID_LAWS)!r},")
