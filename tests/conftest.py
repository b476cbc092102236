from pathlib import Path

import pytest

import reslat.norms as norms
from reslat.finite import load_algebra

FIXTURES_DIR = Path(__file__).resolve().parents[1] / "fixtures"

FIXTURE_NAMES = ("l2", "l4", "g3", "bool2", "bool4")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES_DIR


@pytest.fixture(scope="session")
def fixture_algebras():
    return {name: load_algebra(FIXTURES_DIR / f"{name}.alg") for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def corrupt_algebra():
    return load_algebra(FIXTURES_DIR / "l4-corrupt.alg")


@pytest.fixture
def patch_norms(monkeypatch):
    """Replace one family's closed form, or its residuum form, inside
    reslat.norms, where the grid checkers look both up.  Build a broken
    residuum on ``norms.residuum_form(family)`` taken before the patch: the
    scalar ``norms.residuum`` reads the patched form, so a residuum built on
    it would call itself."""

    def install(family, norm=None, res=None):
        closed_form, residuum_form = norms.closed_form, norms.residuum_form
        if norm is not None:
            monkeypatch.setattr(norms, "closed_form", lambda f: norm if f == family else closed_form(f))
        if res is not None:
            monkeypatch.setattr(norms, "residuum_form", lambda f: res if f == family else residuum_form(f))

    return install
