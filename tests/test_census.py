"""A census of the finite BL-chains up to 8 elements and their small products.

Every finite BL-chain is an ordinal sum of finite Lukasiewicz chains
(Agliano and Montagna, "Varieties of BL-algebras I", 2003), one for each
composition of ``n - 1`` into summand lengths, so there are ``2^(n-2)``
chains with ``n`` elements.  Each chain and its order dual must pass the
signature axioms, the derived laws, the radius lemmas and operation
continuity, with the discrete topology.  So must every product of two of
them with at most 12 elements, and a seeded star mutant of each product
must fail BL3.  Before the theorem is relied on, a brute-force search over
the star tables of the chain ``0 < 1 < ... < n-1`` (n <= 5) must find
exactly the ordinal sums, so that a misreading of it shows as a mismatch.
"""

import itertools
import random

import pytest

from reslat.finite import algebra_from_document, check_axioms, check_derived_laws, dualize_algebra
from reslat.fixtures import mutant, ordinal_sum, product
from reslat.reports import all_ok
from reslat.topology import check_radius_lemmas, count_opens, verify_operation_continuity

MAX_CHAIN = 8
MAX_PRODUCT = 12


def compositions(m: int):
    """Every list of positive integers that sums to ``m``."""
    for parts in range(m):
        for cuts in itertools.combinations(range(1, m), parts):
            bounds = (0, *cuts, m)
            yield [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def chain_sizes(n: int) -> dict[str, list[int]]:
    """The summand sizes of each BL-chain with ``n`` elements, keyed by a name like ``L3+L2``."""
    return {"+".join(f"L{k + 1}" for k in parts): [k + 1 for k in parts] for parts in compositions(n - 1)}


SIZES = {name: sizes for n in range(2, MAX_CHAIN + 1) for name, sizes in chain_sizes(n).items()}
ALL_CHAINS = {name: algebra_from_document(ordinal_sum(sizes)) for name, sizes in SIZES.items()}
CHAINS = {n: {name: alg for name, alg in ALL_CHAINS.items() if alg.n == n} for n in range(2, MAX_CHAIN + 1)}
PRODUCTS = {
    f"{a} x {b}": (a, b)
    for a, b in itertools.combinations_with_replacement(ALL_CHAINS, 2)
    if ALL_CHAINS[a].n * ALL_CHAINS[b].n <= MAX_PRODUCT
}


def passes_every_check(alg) -> bool:
    return (
        all_ok(check_axioms(alg))
        and all_ok(check_derived_laws(alg))
        and all_ok(check_radius_lemmas(alg))
        and all_ok(verify_operation_continuity(alg))
    )


def test_chain_count_doubles_and_the_chains_are_distinct():
    assert [len(CHAINS[n]) for n in CHAINS] == [2 ** (n - 2) for n in CHAINS]
    assert len(ALL_CHAINS) == 127
    assert len({alg.monoid for alg in ALL_CHAINS.values()}) == 127


@pytest.mark.parametrize("n", sorted(CHAINS))
def test_chains_and_duals_pass_with_the_discrete_topology(n):
    for name, alg in CHAINS[n].items():
        for case in (alg, dualize_algebra(alg)):
            assert passes_every_check(case), (name, case.signature)
            assert count_opens(case) == 2**n, (name, case.signature)


def outside_top_summand(name: str) -> int:
    """The elements of a chain outside its top summand ``(lo, 1]``: ``lo`` and those below it."""
    return ALL_CHAINS[name].n - SIZES[name][-1] + 1


def test_products_and_duals_pass_and_count_their_opens():
    """With ``(lo, 1]`` the top summand of each factor, the ball around
    (x, y) at the largest admissible radius reaches one step along either
    axis inside ``[lo, 1]``.  So the smallest open around a point is its
    block: (x, y) alone when x < lo_A and y < lo_B, ``{x} x [lo_B, 1]`` or
    ``[lo_A, 1] x {y}`` when one of them is, and ``[lo_A, 1] x [lo_B, 1]``.
    The opens are the unions of blocks."""
    assert len(PRODUCTS) == 42
    for name, (a, b) in PRODUCTS.items():
        alg = product(ALL_CHAINS[a], ALL_CHAINS[b])
        opens = 2 ** (outside_top_summand(a) * outside_top_summand(b))
        for case in (alg, dualize_algebra(alg)):
            assert passes_every_check(case), (name, case.signature)
            assert count_opens(case) == opens, (name, case.signature)


def test_a_star_mutant_of_each_product_fails_residuation():
    rng = random.Random(20030101)
    for name, (a, b) in PRODUCTS.items():
        alg = product(ALL_CHAINS[a], ALL_CHAINS[b])
        i, j = rng.randrange(alg.n), rng.randrange(alg.n)
        reports = {r.law_id: r for r in check_axioms(mutant(alg, "monoid", i, j, rng))}
        assert not reports["BL3"].ok, (name, i, j)


# -- brute force -----------------------------------------------------------------


def monotone_star_tables(n: int):
    """Every commutative star table on the chain 0 < 1 < ... < n-1 that is
    monotone and has n-1 as its unit, filled entry by entry below the unit."""
    top, cells = n - 1, [(x, y) for x in range(n - 1) for y in range(x, n - 1)]
    table = [[min(x, y) if top in (x, y) else None for y in range(n)] for x in range(n)]

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, table))
            return
        x, y = cells[k]
        least = max(table[x - 1][y] if x else 0, table[x][y - 1] if y > x else 0)
        for value in range(least, x + 1):  # x * y <= x * 1 = x
            table[x][y] = table[y][x] = value
            yield from fill(k + 1)

    yield from fill(0)


def is_bl_chain(star) -> bool:
    """Associative and divisible, with ``x -> y`` the largest ``z`` such that ``z * x <= y``."""
    n = len(star)
    if any(star[star[x][y]][z] != star[x][star[y][z]] for x, y, z in itertools.product(range(n), repeat=3)):
        return False
    arrow = lambda x, y: max(z for z in range(n) if star[z][x] <= y)
    return all(star[x][arrow(x, y)] == min(x, y) for x, y in itertools.product(range(n), repeat=2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_brute_force_finds_exactly_the_ordinal_sums(n):
    found = {star for star in monotone_star_tables(n) if is_bl_chain(star)}
    sums = set()
    for sizes in chain_sizes(n).values():
        doc = ordinal_sum(sizes)
        index = {label: k for k, label in enumerate(doc["carrier"])}
        sums.add(tuple(tuple(index[v] for v in row) for row in doc["star"]))
    assert len(sums) == 2 ** (n - 2)
    assert found == sums
