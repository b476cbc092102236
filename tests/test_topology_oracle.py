"""Differential tests: smallest-ball topology code against a brute-force oracle.

The oracle is written from the definitions alone, with its own BL and DBL
branches, so it stays independent of the code, which works on the DBL form
(the order dual of a BL-algebra).  It gives the admissible radii and every
ball at every admissible radius.  A subset is open iff each of its points
has a ball, for some admissible radius, inside it; the pair space is the
same with pair balls.  An operation is continuous iff every open
set has an open preimage.  It enumerates all 2^n subsets and, for
continuity, every open, so the cases stay at n <= 10.
"""

import functools
import itertools
import random

import pytest

from reslat.finite import FiniteAlgebra, Signature, algebra_from_document, dualize_algebra, load_algebra
from reslat.fixtures import goedel_chain, lukasiewicz_chain, mutant, product
from reslat.topology import (
    admissible_radii,
    ball,
    count_opens,
    enumerate_topology,
    product_ball,
    verify_operation_continuity,
)

from conftest import FIXTURE_NAMES, FIXTURES_DIR

MUTANTS_PER_BASE = 6


# -- oracle --------------------------------------------------------------------

def oracle_radii(alg):
    if alg.signature is Signature.BL:  # strongly less than 1
        return [a for a in alg.elements() if all(b == alg.top for b in alg.elements() if alg.join[a][b] == alg.top)]
    return [a for a in alg.elements() if all(b == alg.bottom for b in alg.elements() if alg.meet[a][b] == alg.bottom)]


def oracle_inside(alg, radius, value):
    below, above = (radius, value) if alg.signature is Signature.BL else (value, radius)
    return below != above and alg.leq[below][above]


def oracle_distance(alg, a, b):
    """(a -> b) * (b -> a), from the algebra's own tables."""
    return alg.monoid[alg.residuum[a][b]][alg.residuum[b][a]]


def oracle_pair_distance(alg, p, q):
    return alg.monoid[oracle_distance(alg, p[0], q[0])][oracle_distance(alg, p[1], q[1])]


def oracle_balls(alg, points, distance):
    """For each centre, the bitmask of its ball at every admissible radius."""
    return [
        [sum(1 << k for k, q in enumerate(points) if oracle_inside(alg, r, distance(p, q))) for r in oracle_radii(alg)]
        for p in points
    ]


def oracle_is_open(balls, mask):
    return all(any(b & ~mask == 0 for b in balls[p]) for p in range(len(balls)) if mask >> p & 1)


def oracle_preimage(alg, table, open_mask):
    pairs = itertools.product(alg.elements(), repeat=2)
    return sum(1 << k for k, (i, j) in enumerate(pairs) if open_mask >> table[i][j] & 1)


class Oracle:
    def __init__(self, alg):
        self.alg = alg
        self.balls = oracle_balls(alg, list(alg.elements()), functools.partial(oracle_distance, alg))
        self.opens = {m for m in range(1 << alg.n) if oracle_is_open(self.balls, m)}
        pairs = list(itertools.product(alg.elements(), repeat=2))
        self.pair_balls = oracle_balls(alg, pairs, functools.partial(oracle_pair_distance, alg))

    def continuous(self, table):
        return all(oracle_is_open(self.pair_balls, oracle_preimage(self.alg, table, m)) for m in self.opens)


# -- cases ---------------------------------------------------------------------

def mutants(name: str, alg: FiniteAlgebra, rng: random.Random):
    """Single off-diagonal star or arrow entries replaced by another element."""
    for _ in range(MUTANTS_PER_BASE):
        field = rng.choice(["monoid", "residuum"])
        i, j = rng.sample(range(alg.n), 2)
        yield f"{name}~{field}-{i}-{j}", mutant(alg, field, i, j, rng)


def build_cases() -> dict[str, FiniteAlgebra]:
    chain = algebra_from_document
    bases = {name: load_algebra(FIXTURES_DIR / f"{name}.alg") for name in FIXTURE_NAMES}
    bases["L6"] = chain(lukasiewicz_chain(6))
    bases["G5"] = chain(goedel_chain(5))
    bases["L3xG3"] = product(chain(lukasiewicz_chain(3)), chain(goedel_chain(3)))
    bases["G4xL2"] = product(chain(goedel_chain(4)), chain(lukasiewicz_chain(2)))
    cases = dict(bases)
    for name, alg in bases.items():
        cases[f"{name}-dual"] = dualize_algebra(alg)
    rng = random.Random(20190909)
    for name in ("l4", "g3", "bool4", "L3xG3", "G4xL2", "L3xG3-dual", "G4xL2-dual"):
        cases.update(mutants(name, cases[name], rng))
    return cases


CASES = build_cases()


@functools.cache
def oracle_for(name: str) -> Oracle:
    return Oracle(CASES[name])


def test_cases_stay_small_and_include_discontinuous_mutants():
    assert max(alg.n for alg in CASES.values()) <= 10
    failing = [name for name, alg in CASES.items() if not all(r.ok for r in verify_operation_continuity(alg))]
    assert failing and all("~" in name for name in failing)
    assert any(name.startswith(("L3xG3", "G4xL2")) for name in failing)


@pytest.mark.parametrize("name", sorted(CASES))
def test_radii_and_balls_match_oracle(name):
    alg = CASES[name]
    oracle = oracle_for(name)
    labels, n = alg.labels, alg.n
    radii = oracle_radii(alg)
    assert admissible_radii(alg) == tuple(labels[r] for r in radii)
    for c in alg.elements():
        for k, r in enumerate(radii):
            got = ball(alg, labels[c], labels[r])
            assert sum(1 << alg.index(b) for b in got) == oracle.balls[c][k], (labels[c], labels[r])
    for p, (i, j) in enumerate(itertools.product(alg.elements(), repeat=2)):
        for k, r in enumerate(radii):
            got = product_ball(alg, (labels[i], labels[j]), labels[r])
            mask = sum(1 << (alg.index(b1) * n + alg.index(b2)) for b1, b2 in got)
            assert mask == oracle.pair_balls[p][k], ((labels[i], labels[j]), labels[r])


@pytest.mark.parametrize("name", sorted(CASES))
def test_open_family_matches_oracle(name):
    alg = CASES[name]
    assert set(enumerate_topology(alg).masks) == oracle_for(name).opens


@pytest.mark.parametrize("name", sorted(CASES))
def test_open_count_matches_oracle(name):
    assert count_opens(CASES[name]) == len(oracle_for(name).opens)


@pytest.mark.parametrize("name", sorted(CASES))
def test_continuity_verdict_and_witnesses_match_oracle(name):
    alg = CASES[name]
    oracle = oracle_for(name)
    reports = verify_operation_continuity(alg)
    assert [r.checked for r in reports] == [alg.n * alg.n] * 2
    for report, table in zip(reports, (alg.monoid, alg.residuum)):
        assert report.ok == oracle.continuous(table), report.law_id
        for witness in report.witnesses:
            labels = witness.args[0].strip("{}").split(", ")
            open_mask = sum(1 << alg.index(label) for label in labels)
            assert open_mask in oracle.opens
            assert not oracle_is_open(oracle.pair_balls, oracle_preimage(alg, table, open_mask))
