import itertools
from functools import reduce

import pytest

from reslat.errors import CarrierTooLarge, InadmissibleRadius, TheoremViolation
from reslat.finite import algebra_from_document, dbl_context, dualize_algebra
from reslat.fixtures import lukasiewicz_chain
from reslat.reports import all_ok
from reslat.topology import (
    MAX_LISTED_CARRIER,
    admissible_radii,
    ball,
    check_radius_lemmas,
    enumerate_topology,
    is_open,
    product_ball,
    product_is_open,
    verify_operation_continuity,
)
from reslat.topology import _ball_mask, _radii, _smallest_pair_balls, _verify_topology_axioms

from test_topology_oracle import CASES


class TestAdmissibleRadii:
    def test_l4_strongly_less_set(self, fixture_algebras):
        assert tuple(admissible_radii(fixture_algebras["l4"])) == ("0", "1/3", "2/3")

    def test_g3(self, fixture_algebras):
        assert tuple(admissible_radii(fixture_algebras["g3"])) == ("0", "1/2")

    def test_bool4_only_bottom(self, fixture_algebras):
        # a | b = 1 with b != 1, so neither generator qualifies
        assert tuple(admissible_radii(fixture_algebras["bool4"])) == ("0",)

    def test_dual_chain_positives(self, fixture_algebras):
        for name in ("l2", "l4", "g3"):
            dual = dualize_algebra(fixture_algebras[name])
            expected = tuple(l for i, l in enumerate(dual.labels) if i != dual.bottom)
            assert tuple(admissible_radii(dual)) == expected

    def test_invariants_on_all_fixtures(self, fixture_algebras):
        for alg in fixture_algebras.values():
            radii = set(admissible_radii(alg))
            assert alg.labels[alg.bottom] in radii
            for a, b in itertools.product(radii, repeat=2):
                joined = alg.labels[alg.join(alg.index(a), alg.index(b))]
                assert joined in radii

    def test_chain_every_nontop_is_admissible(self, fixture_algebras):
        for name in ("l2", "l4", "g3"):
            alg = fixture_algebras[name]
            expected = tuple(l for i, l in enumerate(alg.labels) if i != alg.top)
            assert tuple(admissible_radii(alg)) == expected


class TestBalls:
    def test_l4_singleton(self, fixture_algebras):
        assert ball(fixture_algebras["l4"], "1", "2/3") == {"1"}

    def test_center_always_member(self, fixture_algebras):
        for alg in fixture_algebras.values():
            for center in alg.labels:
                for radius in admissible_radii(alg):
                    assert center in ball(alg, center, radius)

    def test_radius_zero_ball(self, fixture_algebras):
        l4 = fixture_algebras["l4"]
        for a in l4.labels:
            assert a in ball(l4, a, "0")

    def test_dual_g3_ball_at_zero(self, fixture_algebras):
        dual = dualize_algebra(fixture_algebras["g3"])
        zero = dual.labels[dual.bottom]
        assert ball(dual, zero, "1/2") == {zero}

    def test_inadmissible_radius(self, fixture_algebras):
        with pytest.raises(InadmissibleRadius):
            ball(fixture_algebras["l4"], "0", "1")

    def test_antitone_in_radius(self, fixture_algebras):
        # BL side: r >= s gives the smaller ball
        for alg in fixture_algebras.values():
            radii = [alg.index(r) for r in admissible_radii(alg)]
            for r, s in itertools.product(radii, repeat=2):
                if not alg.le(s, r):
                    continue
                for center in alg.labels:
                    big_r = ball(alg, center, alg.labels[r])
                    small_s = ball(alg, center, alg.labels[s])
                    assert big_r <= small_s

    def test_intersection_contains_ball_of_joined_radius(self, fixture_algebras):
        # the key step of the topology theorem, via L4
        for alg in fixture_algebras.values():
            radii = list(admissible_radii(alg))
            for r_a, r_b in itertools.product(radii, repeat=2):
                joined = alg.labels[alg.join(alg.index(r_a), alg.index(r_b))]
                assert joined in admissible_radii(alg)
                for center in alg.labels:
                    merged = ball(alg, center, joined)
                    assert merged <= ball(alg, center, r_a) & ball(alg, center, r_b)


class TestOpenSets:
    def test_empty_and_full(self, fixture_algebras):
        for alg in fixture_algebras.values():
            assert is_open(alg, frozenset())
            assert is_open(alg, alg.labels)

    def test_l4_singleton_open(self, fixture_algebras):
        assert is_open(fixture_algebras["l4"], {"1"})

    def test_bool4_proper_subsets_not_open(self, fixture_algebras):
        b4 = fixture_algebras["bool4"]
        assert not is_open(b4, {"0"})
        assert not is_open(b4, {"a", "b"})


class TestTopologyEnumeration:
    def test_l4_discrete(self, fixture_algebras):
        topo = enumerate_topology(fixture_algebras["l4"])
        assert len(topo) == 16
        assert frozenset() in topo.opens
        assert frozenset(fixture_algebras["l4"].labels) in topo.opens

    def test_bool2_discrete(self, fixture_algebras):
        assert len(enumerate_topology(fixture_algebras["bool2"])) == 4

    def test_g3_discrete(self, fixture_algebras):
        assert len(enumerate_topology(fixture_algebras["g3"])) == 8

    def test_bool4_indiscrete(self, fixture_algebras):
        topo = enumerate_topology(fixture_algebras["bool4"])
        assert topo.export_lines() == ["{}", "{0, a, b, 1}"]

    def test_family_closure(self, fixture_algebras):
        for alg in fixture_algebras.values():
            topo = enumerate_topology(alg)
            opens = set(topo.masks)
            for m1, m2 in itertools.product(topo.masks, repeat=2):
                assert m1 | m2 in opens
                assert m1 & m2 in opens

    def test_export_deterministic(self, fixture_algebras):
        l4 = fixture_algebras["l4"]
        lines = enumerate_topology(l4).export_lines()
        assert lines == enumerate_topology(l4).export_lines()
        assert lines[0] == "{}"
        assert lines[1:5] == ["{0}", "{1/3}", "{2/3}", "{1}"]
        assert lines[-1] == "{0, 1/3, 2/3, 1}"

    def test_listing_limit(self):
        too_large = algebra_from_document(lukasiewicz_chain(MAX_LISTED_CARRIER + 1))
        with pytest.raises(CarrierTooLarge, match=f"{MAX_LISTED_CARRIER + 1} exceeds the listing limit"):
            enumerate_topology(too_large)

    def test_duals_also_form_topologies(self, fixture_algebras):
        for name, alg in fixture_algebras.items():
            dual = dualize_algebra(alg)
            topo = enumerate_topology(dual)
            assert frozenset() in topo.opens and frozenset(dual.labels) in topo.opens


class TestProductSpace:
    def test_l4_pair_singleton(self, fixture_algebras):
        assert product_ball(fixture_algebras["l4"], ("1", "1"), "2/3") == {("1", "1")}

    def test_bool2_pair_ball(self, fixture_algebras):
        assert product_ball(fixture_algebras["bool2"], ("0", "1"), "0") == {("0", "1")}

    def test_center_membership(self, fixture_algebras):
        for alg in fixture_algebras.values():
            radii = list(admissible_radii(alg))
            for pair in itertools.product(alg.labels, repeat=2):
                assert pair in product_ball(alg, pair, radii[0])

    def test_product_open_basics(self, fixture_algebras):
        for alg in fixture_algebras.values():
            assert product_is_open(alg, [])
            assert product_is_open(alg, list(itertools.product(alg.labels, repeat=2)))

    def test_inadmissible_radius(self, fixture_algebras):
        with pytest.raises(InadmissibleRadius):
            product_ball(fixture_algebras["l4"], ("0", "0"), "1")


class TestContinuity:
    def test_all_fixtures(self, fixture_algebras):
        for name, alg in fixture_algebras.items():
            reports = verify_operation_continuity(alg)
            assert [r.law_id for r in reports] == ["star-continuity", "arrow-continuity"]
            assert all_ok(reports), name

    def test_duals(self, fixture_algebras):
        for name, alg in fixture_algebras.items():
            assert all_ok(verify_operation_continuity(dualize_algebra(alg))), name


class TestRadiusLemmas:
    def test_bl_fixtures(self, fixture_algebras):
        for name, alg in fixture_algebras.items():
            reports = check_radius_lemmas(alg)
            assert [r.law_id for r in reports] == ["L1", "L2", "L3", "L4"]
            assert all_ok(reports), name

    def test_dbl_duals(self, fixture_algebras):
        for name, alg in fixture_algebras.items():
            reports = check_radius_lemmas(dualize_algebra(alg))
            assert [r.law_id for r in reports] == ["G1", "G2", "G3", "G4"]
            assert all_ok(reports), name


def pair_balls_by_definition(alg):
    """N2(p) for every pair p from the pair distance to every pair q: O(n^4)."""
    ctx = dbl_context(alg)
    radius = reduce(lambda a, b: ctx.meet[a][b], _radii(ctx))
    pairs = list(itertools.product(alg.elements(), repeat=2))
    return [_ball_mask(ctx, radius, (alg.pair_bires(p, q) for q in pairs)) for p in pairs]


CHAINS = {f"L{n}": algebra_from_document(lukasiewicz_chain(n)) for n in (16, 24)}


@pytest.mark.parametrize("name", sorted(CASES) + sorted(CHAINS))
def test_smallest_pair_balls_match_the_definition(name):
    alg = CASES.get(name) or CHAINS[name]
    assert _smallest_pair_balls(alg) == pair_balls_by_definition(alg)


class TestListingAxioms:
    @staticmethod
    def unions(ups):
        masks = {0}
        for up in ups:
            masks |= {m | up for m in masks}
        return tuple(sorted(masks))

    def test_a_missing_intersection_is_refused(self, fixture_algebras):
        alg = fixture_algebras["l4"]
        ups = [0b0011, 0b0110, 0b1111]  # 0b0011 & 0b0110 = 0b0010 is no union of them
        with pytest.raises(TheoremViolation, match="intersection"):
            _verify_topology_axioms(alg, self.unions(ups), ups)

    def test_a_family_closed_under_intersection_passes(self, fixture_algebras):
        alg = fixture_algebras["l4"]
        ups = [0b0011, 0b0110, 0b0010, 0b1111]
        _verify_topology_axioms(alg, self.unions(ups), ups)

    def test_the_carrier_is_required(self, fixture_algebras):
        ups = [0b0011, 0b0110, 0b0010]
        with pytest.raises(TheoremViolation, match="carrier"):
            _verify_topology_axioms(fixture_algebras["l4"], self.unions(ups), ups)
