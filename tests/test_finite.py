import collections
import itertools
import json
import random
from fractions import Fraction

import pytest

from reslat.errors import NotALattice, NotAPartialOrder, ParseError, TableOutOfRange
from reslat.finite import (
    MAX_CARRIER,
    FiniteAlgebra,
    Signature,
    algebra_from_document,
    algebra_to_document,
    biresiduum,
    check_axioms,
    check_derived_laws,
    dualize_algebra,
    load_algebra,
    loads_algebra,
    pair_biresiduum,
)
from reslat.fixtures import (
    boolean_algebra,
    build_all,
    goedel_chain,
    lukasiewicz_chain,
    ordinal_sum,
    product,
    write_fixture_files,
)
from reslat.laws import D_LAWS, as_bl
from reslat.reports import all_ok


def chain_doc(labels, star=None, arrow=None):
    """Minimal two-element document for structural error tests."""
    n = len(labels)
    return {
        "signature": "BL",
        "carrier": list(labels),
        "bottom": labels[0],
        "top": labels[-1],
        "leq": [[labels[i], labels[j]] for i in range(n) for j in range(n) if i < j],
        "star": star or [[labels[min(i, j)] for j in range(n)] for i in range(n)],
        "arrow": arrow or [[labels[-1] if i <= j else labels[j] for j in range(n)] for i in range(n)],
    }


class TestLoading:
    def test_l4_loads(self, fixture_algebras):
        l4 = fixture_algebras["l4"]
        assert l4.signature is Signature.BL
        assert l4.labels == ("0", "1/3", "2/3", "1")
        # spot-check the derived tables: x*y = max(0, x+y-1)
        i, j = l4.index("2/3"), l4.index("2/3")
        assert l4.labels[l4.monoid[i][j]] == "1/3"
        assert l4.labels[l4.residuum[l4.index("2/3")][l4.index("1/3")]] == "2/3"

    def test_boolean_two_loads(self):
        alg = algebra_from_document(boolean_algebra(1))
        assert alg.labels == ("0", "1")
        assert alg.monoid[1][1] == 1 and alg.monoid[0][1] == 0

    def test_carrier_cap(self):
        assert algebra_from_document(chain_doc([str(i) for i in range(MAX_CARRIER)])).n == MAX_CARRIER
        with pytest.raises(ParseError, match=f"at most {MAX_CARRIER}"):
            algebra_from_document(chain_doc([str(i) for i in range(MAX_CARRIER + 1)]))

    def test_missing_field(self):
        doc = chain_doc(["0", "1"])
        del doc["arrow"]
        with pytest.raises(ParseError, match="arrow"):
            algebra_from_document(doc)

    def test_unknown_label_in_leq(self):
        doc = chain_doc(["0", "1"])
        doc["leq"].append(["0", "bogus"])
        with pytest.raises(ParseError, match="bogus"):
            algebra_from_document(doc)

    def test_non_square_table(self):
        doc = chain_doc(["0", "1"])
        doc["star"] = [["0", "0"]]
        with pytest.raises(ParseError, match="n x n"):
            algebra_from_document(doc)

    def test_unknown_label_in_table(self):
        doc = chain_doc(["0", "1"])
        doc["star"][0][0] = "bogus"
        with pytest.raises(TableOutOfRange):
            algebra_from_document(doc)

    def test_bad_json(self):
        with pytest.raises(ParseError):
            loads_algebra("{not json")

    def test_antisymmetry_violation(self):
        doc = chain_doc(["0", "1"])
        doc["leq"].append(["1", "0"])
        with pytest.raises(NotAPartialOrder, match="antisymmetry"):
            algebra_from_document(doc)

    def test_transitivity_violation(self):
        doc = chain_doc(["0", "m", "1"])
        doc["leq"] = [["0", "m"], ["m", "1"]]  # missing 0 <= 1
        with pytest.raises(NotAPartialOrder, match="transitivity"):
            algebra_from_document(doc)

    def test_missing_join_is_not_a_lattice(self):
        # a, b below both x and y: join(a, b) has two minimal upper bounds
        labels = ["0", "a", "b", "x", "y", "1"]
        pairs = [["0", l] for l in labels[1:]] + [[l, "1"] for l in labels[1:-1]]
        pairs += [["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"]]
        n = len(labels)
        doc = {
            "signature": "BL",
            "carrier": labels,
            "bottom": "0",
            "top": "1",
            "leq": pairs,
            "star": [["0"] * n for _ in range(n)],
            "arrow": [["1"] * n for _ in range(n)],
        }
        with pytest.raises(NotALattice, match="join"):
            algebra_from_document(doc)

    def test_bottom_must_be_least(self):
        doc = chain_doc(["0", "1"])
        doc["bottom"], doc["top"] = "1", "1"
        with pytest.raises(NotALattice):
            algebra_from_document(doc)

    def test_document_round_trip(self, fixture_algebras):
        for alg in fixture_algebras.values():
            assert algebra_from_document(algebra_to_document(alg)) == alg


class TestAxioms:
    def test_all_fixtures_pass(self, fixture_algebras):
        for name, alg in fixture_algebras.items():
            reports = check_axioms(alg)
            assert [r.law_id for r in reports] == ["BL1", "BL2", "BL3", "BL4", "BL5"]
            assert all_ok(reports), (name, [r.lines() for r in reports if not r.ok])

    def test_corrupted_l4_fails_bl3_with_witness(self, corrupt_algebra):
        reports = {r.law_id: r for r in check_axioms(corrupt_algebra)}
        assert not reports["BL3"].ok
        witness = reports["BL3"].witnesses[0]
        assert witness.args == ("2/3", "1/3", "2/3")
        # witness re-evaluates: c <= a->b is false while c*a <= b is true
        alg = corrupt_algebra
        a, b, c = (alg.index(x) for x in witness.args)
        assert not alg.leq[c][alg.residuum[a][b]]
        assert alg.leq[alg.monoid[c][a]][b]

    def test_corrupt_witness_is_reproducible(self, fixtures_dir):
        first = check_axioms(load_algebra(fixtures_dir / "l4-corrupt.alg"))
        second = check_axioms(load_algebra(fixtures_dir / "l4-corrupt.alg"))
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


class TestDerivedLaws:
    def test_fixtures_pass_b_laws(self, fixture_algebras):
        for name, alg in fixture_algebras.items():
            reports = check_derived_laws(alg)
            assert [r.law_id for r in reports] == [f"B{i}" for i in range(1, 16)]
            assert all_ok(reports), name

    def test_b13_directly(self, fixture_algebras):
        for alg in fixture_algebras.values():
            for a in alg.elements():
                assert alg.residuum[a][a] == alg.top

    def test_axioms_imply_derived(self, fixture_algebras):
        # executable round-trip: anything passing the axioms passes the laws
        for alg in fixture_algebras.values():
            if all_ok(check_axioms(alg)):
                assert all_ok(check_derived_laws(alg))

    def test_law_selection(self, fixture_algebras):
        reports = check_derived_laws(fixture_algebras["l2"], ids=["B4", "B8"])
        assert [r.law_id for r in reports] == ["B4", "B8"]


class TestDualization:
    def test_duals_satisfy_dbl_axioms(self, fixture_algebras):
        for name, alg in fixture_algebras.items():
            dual = dualize_algebra(alg)
            assert dual.signature is Signature.DBL
            reports = check_axioms(dual)
            assert [r.law_id for r in reports] == ["DBL1", "DBL2", "DBL3", "DBL4", "DBL5"]
            assert all_ok(reports), name

    def test_duals_satisfy_d_laws(self, fixture_algebras):
        for name, alg in fixture_algebras.items():
            reports = check_derived_laws(dualize_algebra(alg))
            assert [r.law_id for r in reports] == [f"D{i}" for i in range(1, 16)]
            assert all_ok(reports), name

    def test_b_laws_are_d_laws_on_the_dual(self, fixture_algebras, corrupt_algebra):
        for alg in [*fixture_algebras.values(), corrupt_algebra]:
            b_side = check_derived_laws(alg)
            d_side = as_bl(check_derived_laws(dualize_algebra(alg)))
            assert [r.to_dict() for r in b_side] == [r.to_dict() for r in d_side]
        assert not all_ok(b_side)

    @pytest.mark.parametrize("d_id", [law_id for law_id, *_ in D_LAWS])
    def test_each_b_id_is_its_d_law_on_the_dual(self, fixture_algebras, corrupt_algebra, d_id):
        b_id = "B" + d_id[1:]
        for alg in [*fixture_algebras.values(), corrupt_algebra]:
            (b_report,) = check_derived_laws(alg, [b_id])
            (d_report,) = as_bl(check_derived_laws(dualize_algebra(alg), [d_id]))
            assert b_report.law_id == b_id
            assert b_report.to_dict() == d_report.to_dict()
        with pytest.raises(ValueError, match=rf"^a BL-algebra has only the laws B1\.\.B15, not {d_id}$"):
            check_derived_laws(corrupt_algebra, [d_id])

    def test_involution(self, fixture_algebras):
        for alg in fixture_algebras.values():
            assert dualize_algebra(dualize_algebra(alg)) == alg

    def test_reverses_every_pair(self, fixture_algebras):
        for alg in fixture_algebras.values():
            dual = dualize_algebra(alg)
            assert dual.n == alg.n
            for i, j in itertools.product(alg.elements(), repeat=2):
                assert dual.leq[i][j] == alg.leq[j][i]
            assert (dual.bottom, dual.top) == (alg.top, alg.bottom)

    def test_boolean_dual_monoid_is_its_join(self, fixture_algebras):
        dual = dualize_algebra(fixture_algebras["bool2"])
        for i, j in itertools.product(dual.elements(), repeat=2):
            assert dual.monoid[i][j] == dual.join[i][j]


class TestBiresiduum:
    def test_l4_value(self, fixture_algebras):
        assert biresiduum(fixture_algebras["l4"], "1/3", "2/3") == "2/3"

    def test_diagonal_is_top(self, fixture_algebras):
        for alg in fixture_algebras.values():
            for label in alg.labels:
                assert biresiduum(alg, label, label) == alg.labels[alg.top]

    def test_dual_diagonal_is_zero(self, fixture_algebras):
        # on the DBL side the operator is the induced distance
        for alg in fixture_algebras.values():
            dual = dualize_algebra(alg)
            zero = dual.labels[dual.bottom]
            for a, b in itertools.product(dual.labels, repeat=2):
                assert (biresiduum(dual, a, b) == zero) == (a == b)

    def test_symmetry_and_b7_bound(self, fixture_algebras):
        for alg in fixture_algebras.values():
            for a, b in itertools.product(alg.labels, repeat=2):
                assert biresiduum(alg, a, b) == biresiduum(alg, b, a)
                assert alg.leq[alg.index(biresiduum(alg, a, b))][alg.residuum[alg.index(a)][alg.index(b)]]

    def test_pair_operator(self, fixture_algebras):
        l4 = fixture_algebras["l4"]
        assert pair_biresiduum(l4, ("1", "1"), ("1", "1")) == "1"
        assert pair_biresiduum(l4, ("1/3", "1"), ("2/3", "1")) == "2/3"
        # components combine through the monoid: (1/3<->2/3) * (0<->1) = 2/3 * 0
        assert pair_biresiduum(l4, ("1/3", "0"), ("2/3", "1")) == "0"

    def test_operations_move_by_at_most_the_pair_value(self, fixture_algebras):
        # (a1*a2) <-> (b1*b2) and (a1->a2) <-> (b1->b2) both dominate a <=> b
        for alg in fixture_algebras.values():
            for a1, a2, b1, b2 in itertools.product(alg.labels, repeat=4):
                pair = alg.index(pair_biresiduum(alg, (a1, a2), (b1, b2)))
                (i1, i2), (j1, j2) = (alg.index(a1), alg.index(a2)), (alg.index(b1), alg.index(b2))
                for table in (alg.monoid, alg.residuum):
                    moved = biresiduum(alg, alg.labels[table[i1][i2]], alg.labels[table[j1][j2]])
                    assert alg.leq[pair][alg.index(moved)]


def closed_form_chain(size, star, arrow):
    """The chain 0, 1/(size-1), ..., 1 with tables from closed forms in Fraction."""
    values = [Fraction(k, size - 1) for k in range(size)]
    labels = [str(v) for v in values]
    return {
        "signature": "BL",
        "carrier": labels,
        "bottom": labels[0],
        "top": labels[-1],
        "leq": [[str(x), str(y)] for x in values for y in values if x < y],
        "star": [[str(star(x, y)) for y in values] for x in values],
        "arrow": [[str(arrow(x, y)) for y in values] for x in values],
    }


class TestFixtureBuilders:
    def test_shipped_files_match_builders(self, fixtures_dir):
        for stem, doc in build_all().items():
            on_disk = json.loads((fixtures_dir / f"{stem}.alg").read_text())
            assert on_disk == doc, stem

    def test_written_files_reproduce_the_shipped_bytes(self, fixtures_dir, tmp_path):
        written = write_fixture_files(tmp_path)
        assert sorted(path.name for path in written) == sorted(path.name for path in fixtures_dir.glob("*.alg"))
        for path in written:
            assert path.read_bytes() == (fixtures_dir / path.name).read_bytes(), path.name

    @pytest.mark.parametrize("size", range(2, 25))
    def test_ordinal_sums_give_the_textbook_chains(self, size):
        luk = closed_form_chain(size, lambda x, y: max(Fraction(0), x + y - 1), lambda x, y: min(Fraction(1), 1 - x + y))
        goedel = closed_form_chain(size, min, lambda x, y: Fraction(1) if x <= y else y)
        assert lukasiewicz_chain(size) == luk
        assert goedel_chain(size) == goedel

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: lukasiewicz_chain(1), "a chain needs at least 2 elements, not 1"),
            (lambda: lukasiewicz_chain(0), "a chain needs at least 2 elements, not 0"),
            (lambda: goedel_chain(1), "a chain needs at least 2 elements, not 1"),
            (lambda: boolean_algebra(0), "a Boolean algebra needs 1 to 8 generators, not 0"),
            (lambda: boolean_algebra(9), "a Boolean algebra needs 1 to 8 generators, not 9"),
            (lambda: ordinal_sum([]), "an ordinal sum needs at least one summand"),
            (lambda: ordinal_sum([3, 1, 2]), "each summand needs at least 2 elements, not 1"),
        ],
        ids=["luk-1", "luk-0", "goedel-1", "bool-0", "bool-9", "sum-empty", "sum-of-one"],
    )
    def test_builders_refuse_what_they_cannot_build(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_product_refuses_two_signatures(self):
        chain = algebra_from_document(lukasiewicz_chain(3))
        with pytest.raises(ValueError, match="^cannot multiply a BL-algebra by a DBL-algebra$"):
            product(chain, dualize_algebra(chain))

    def test_chain_builders_self_validate(self):
        for doc in (lukasiewicz_chain(2), lukasiewicz_chain(4), goedel_chain(3), boolean_algebra(2)):
            alg = algebra_from_document(doc)
            assert all_ok(check_axioms(alg))


# -- meets and joins -----------------------------------------------------------


def ref_bounds(labels, leq):
    """Meets and joins by scanning the common lower and upper bounds of each
    pair, in product order with the meet first: the two tables, or the
    message for the first pair without a unique bound."""
    n = len(labels)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
        greatest = [m for m in lower if all(leq[k][m] for k in lower)]
        if len(greatest) != 1:
            return f"no unique meet for ({labels[i]}, {labels[j]})"
        meet[i][j] = greatest[0]
        upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
        least = [m for m in upper if all(leq[m][k] for k in upper)]
        if len(least) != 1:
            return f"no unique join for ({labels[i]}, {labels[j]})"
        join[i][j] = least[0]
    return tuple(map(tuple, meet)), tuple(map(tuple, join))


def loaded_bounds(labels, leq, bottom, top):
    """The meets and joins of an algebra on this order, or the message it is refused with."""
    zeros = [[0] * len(labels)] * len(labels)
    try:
        alg = FiniteAlgebra(labels, leq, zeros, zeros, Signature.BL, bottom, top)
    except NotALattice as exc:
        return str(exc)
    return alg.meet, alg.join


def random_order(rng, n):
    """The order by inclusion on n random subsets of {0, .., 4}, the empty
    set and the full set among them, listed in a random carrier order; many
    pairs of such subsets have no meet or no join."""
    sets = [0, 31] + rng.sample(range(1, 31), n - 2)
    rng.shuffle(sets)
    leq = [[x & y == x for y in sets] for x in sets]
    return [format(x, "05b") for x in sets], leq, sets.index(0), sets.index(31)


class TestBounds:
    def test_fixtures_chains_and_boolean_algebras(self, fixture_algebras):
        algebras = list(fixture_algebras.values()) + [
            algebra_from_document(doc) for doc in (lukasiewicz_chain(64), goedel_chain(9), boolean_algebra(6))
        ]
        for alg in algebras + [dualize_algebra(alg) for alg in algebras]:
            assert (alg.meet, alg.join) == ref_bounds(alg.labels, alg.leq), alg

    def test_products(self, fixture_algebras):
        bases = list(fixture_algebras.values()) + [algebra_from_document(goedel_chain(3))]
        for a, b in itertools.product(bases, repeat=2):
            p = product(a, b)
            assert loaded_bounds(p.labels, p.leq, p.bottom, p.top) == ref_bounds(p.labels, p.leq)

    def test_a_pair_without_meet_and_join_is_refused_for_its_meet(self):
        # 0 < a, b < x, y < e, f < 1, each level below all of the next.
        levels = [["0"], ["a", "b"], ["x", "y"], ["e", "f"], ["1"]]
        rank = {v: r for r, level in enumerate(levels) for v in level}
        labels = ["x", "y", "0", "a", "b", "e", "f", "1"]
        leq = [[u == v or rank[u] < rank[v] for v in labels] for u in labels]
        expected = "no unique meet for (x, y)"
        assert loaded_bounds(labels, leq, 2, 7) == ref_bounds(labels, leq) == expected

    def test_random_orders_with_and_without_bounds(self):
        rng = random.Random(20261019)
        outcomes = collections.Counter()
        for _ in range(300):
            labels, leq, bottom, top = random_order(rng, rng.randint(2, 18))
            expected = ref_bounds(labels, leq)
            assert loaded_bounds(labels, leq, bottom, top) == expected
            outcomes[expected.split()[2] if isinstance(expected, str) else "lattice"] += 1
        # Lattices were drawn, and orders whose first missing bound is a meet or a join.
        assert min(outcomes[k] for k in ("lattice", "meet", "join")) >= 20


# -- transitivity ----------------------------------------------------------------


def ref_transitivity(labels, leq):
    """The O(n^3) loop the bitmask test replaced: the message for the first
    failing triple in product order, or None for a transitive relation."""
    for i, j, k in itertools.product(range(len(labels)), repeat=3):
        if leq[i][j] and leq[j][k] and not leq[i][k]:
            return f"transitivity fails at ({labels[i]}, {labels[j]}, {labels[k]})"
    return None


def random_relation(rng, n):
    """A reflexive, antisymmetric relation on n elements: each pair of
    distinct elements is related one way, the other way or not at all."""
    p = rng.uniform(0.05, 0.45)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        u = rng.random()
        if u < p:
            leq[i][j] = True
        elif u < 2 * p:
            leq[j][i] = True
    return leq


def order_missing_a_pair(rng):
    """A random order by inclusion with one related pair of distinct
    elements removed: at most the triples through that pair fail."""
    labels, leq, _, _ = random_order(rng, rng.randint(3, 14))
    pairs = [(i, j) for i, j in itertools.product(range(len(labels)), repeat=2) if i != j and leq[i][j]]
    i, j = rng.choice(pairs)
    leq[i][j] = False
    return labels, leq


class TestTransitivity:
    def test_the_first_failing_triple_is_the_one_the_loop_names(self):
        rng = random.Random(20261020)
        outcomes = collections.Counter()
        for k in range(600):
            if k % 2:
                labels, leq = order_missing_a_pair(rng)
            else:
                n = rng.randint(2, 14)
                labels, leq = [f"e{i}" for i in range(n)], random_relation(rng, n)
            expected = ref_transitivity(labels, leq)
            zeros = [[0] * len(labels)] * len(labels)
            try:
                FiniteAlgebra(labels, leq, zeros, zeros, Signature.BL, 0, len(labels) - 1)
                message = None
            except NotAPartialOrder as exc:
                message = str(exc)
            except NotALattice:
                message = None
            assert message == expected
            outcomes[expected is None] += 1
        # Both transitive and intransitive relations were drawn.
        assert min(outcomes.values()) >= 100
