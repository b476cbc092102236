"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (rational arithmetic, zero tolerance).  Run with
``pytest tests/test_acceptance.py``; the one-line verdicts print straight to
the terminal even under capture.
"""

import itertools
import time

import pytest

from formula_corpus import CORPUS
from reslat.cli import main as cli_main
from reslat.errors import FormulaSyntaxError
from reslat.finite import check_axioms, check_derived_laws, dualize_algebra
from reslat.formulas import check_prelinearity_tautology, evaluate, parse, sweep_values, to_text
from reslat.metric import (
    SAlgebra,
    continuity_inequalities_check,
    d_star_closed_form_check,
    dbl_laws_check,
    metric_axioms_check,
)
from reslat.norms import NormFamily, NormKind, adjointness_check
from reslat.reports import all_ok
from reslat.topology import (
    admissible_radii,
    check_radius_lemmas,
    enumerate_topology,
    verify_operation_continuity,
)
from reslat.unitval import GridSpec

FAMILIES = ("lukasiewicz", "goedel", "product")
S_ALGEBRAS = {name: SAlgebra.of(name) for name in FAMILIES}
T_FAMILIES = {name: NormFamily.t_norm(NormKind(name)) for name in FAMILIES}


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"criterion {number:>2}: {verdict} - {detail}")

    return _announce


def test_criterion_1_closed_form_conformance(announce):
    grid = GridSpec(64)
    ok = True
    worst = 0.0
    for name, alg in S_ALGEBRAS.items():
        t0 = time.perf_counter()
        report = d_star_closed_form_check(alg, grid)
        worst = max(worst, time.perf_counter() - t0)
        ok = ok and report.ok and report.checked == 65**2
    ok = ok and worst < 1.0
    announce(1, ok, f"induced distance equals closed form on 65^2 pairs per family ({worst:.2f}s worst)")
    assert ok


def test_criterion_2_residuum_adjunction(announce):
    grid = GridSpec(16)
    ok = True
    worst = 0.0
    for name, alg in S_ALGEBRAS.items():
        t0 = time.perf_counter()
        report = adjointness_check(alg.norm, grid)
        worst = max(worst, time.perf_counter() - t0)
        ok = ok and report.ok and report.checked == 17**3
    ok = ok and worst < 1.0
    announce(2, ok, f"a >= R(b,c) iff S(a,b) >= c on 17^3 triples per family ({worst:.2f}s worst)")
    assert ok


def test_criterion_3_metric_theorem(announce):
    grid = GridSpec(32)
    ok = True
    for name, alg in S_ALGEBRAS.items():
        reports = {r.law_id: r for r in metric_axioms_check(alg, grid)}
        for law in ("d-identity", "d-symmetry", "d-star-triangle"):
            ok = ok and reports[law].ok
        if name in ("goedel", "product"):
            ok = ok and "d-triangle" in reports and reports["d-triangle"].ok
    announce(3, ok, "identity, symmetry, star-triangle at denominator 32; numeric triangle for goedel/product")
    assert ok


def test_criterion_4_continuity_contracts(announce):
    grid = GridSpec(16)
    ok = True
    worst = 0.0
    for name, alg in S_ALGEBRAS.items():
        t0 = time.perf_counter()
        reports = continuity_inequalities_check(alg, grid)
        worst = max(worst, time.perf_counter() - t0)
        ok = ok and [r.law_id for r in reports] == ["star-lipschitz", "res-lipschitz", "z1", "z2", "z3"]
        ok = ok and all_ok(reports) and all(r.checked == 17**4 for r in reports)
    ok = ok and worst < 5.0
    announce(4, ok, f"both operations move by at most the pair distance, plus z1-z3, on 17^4 tuples ({worst:.2f}s worst)")
    assert ok


def test_criterion_5_law_suites(announce, fixture_algebras, corrupt_algebra):
    grid = GridSpec(8)
    ok = True
    for alg in S_ALGEBRAS.values():
        ok = ok and all_ok(dbl_laws_check(alg, grid))
    for name, alg in fixture_algebras.items():
        ok = ok and all_ok(check_axioms(alg)) and all_ok(check_derived_laws(alg))
    bl3 = next(r for r in check_axioms(corrupt_algebra) if r.law_id == "BL3")
    ok = ok and not bl3.ok and bl3.witnesses[0].args == ("2/3", "1/3", "2/3")
    rerun = next(r for r in check_axioms(corrupt_algebra) if r.law_id == "BL3")
    ok = ok and rerun.witnesses[0].args == bl3.witnesses[0].args
    announce(5, ok, "D1-D15 on grids, B1-B15 and BL1-BL5 on all fixtures, corrupted chain fails BL3 reproducibly")
    assert ok


def test_criterion_6_duality(announce, fixture_algebras):
    ok = True
    for name, alg in fixture_algebras.items():
        dual = dualize_algebra(alg)
        ok = ok and all_ok(check_axioms(dual)) and all_ok(check_derived_laws(dual))
        there_and_back = dualize_algebra(dual)
        ok = ok and there_and_back == alg
        ok = ok and there_and_back.monoid == alg.monoid and there_and_back.residuum == alg.residuum
    announce(6, ok, "every dualized fixture satisfies DBL1-DBL5 and D1-D15; dualize is an involution on tables")
    assert ok


def test_criterion_7_topology_theorem(announce, fixture_algebras):
    ok = True
    for name, alg in fixture_algebras.items():
        topo = enumerate_topology(alg)
        family = set(topo.masks)
        full = (1 << alg.n) - 1
        ok = ok and 0 in family and full in family
        for m1, m2 in itertools.combinations_with_replacement(topo.masks, 2):
            if m1 | m2 not in family or m1 & m2 not in family:
                ok = False
                break
        if name == "l4":
            ok = ok and len(topo) == 16
    announce(7, ok, "open families contain {} and L and are union/intersection closed; l4 is discrete with 16 opens")
    assert ok


def test_criterion_8_operation_continuity(announce, fixture_algebras):
    ok = True
    for name, alg in fixture_algebras.items():
        reports = verify_operation_continuity(alg)
        ok = ok and all_ok(reports) and all(r.failures == 0 for r in reports)
    announce(8, ok, "zero non-open preimages for the monoid and residuum maps on every fixture")
    assert ok


def test_criterion_9_radius_lemmas(announce, fixture_algebras):
    ok = True
    for name, alg in fixture_algebras.items():
        ok = ok and all_ok(check_radius_lemmas(alg))
        ok = ok and all_ok(check_radius_lemmas(dualize_algebra(alg)))
    ok = ok and tuple(admissible_radii(fixture_algebras["l4"])) == ("0", "1/3", "2/3")
    announce(9, ok, "G1-G4 / L1-L4 hold exhaustively; the l4 strongly-less-than-1 set is exactly {0, 1/3, 2/3}")
    assert ok


def test_criterion_10_semantics(announce, fixture_algebras):
    grid = GridSpec(32)
    ok = True
    meet_formula = parse("p ^ q")
    for name, family in T_FAMILIES.items():
        report = check_prelinearity_tautology(family, grid)
        ok = ok and report.ok and report.checked == 33**2
        for (p, q), value in sweep_values(meet_formula, family, grid.points()).items():
            if value != min(p, q):
                ok = False
                break
    for name, alg in fixture_algebras.items():
        ok = ok and check_prelinearity_tautology(alg).ok
        for a, b in itertools.product(alg.labels, repeat=2):
            got = evaluate(meet_formula, alg, {"p": a, "q": b})
            if got != alg.labels[alg.meet[alg.index(a)][alg.index(b)]]:
                ok = False
                break
    announce(10, ok, "(p->q)|(q->p) is constantly 1 and p^q is the lattice meet, on grids and fixtures")
    assert ok


def test_criterion_11_parser(announce, capsys):
    ok = len(CORPUS) == 50
    for text in CORPUS:
        ast = parse(text)
        printed = to_text(ast)
        if parse(printed) != ast or to_text(parse(printed)) != printed:
            ok = False
            break
    malformed = ["p -> (", "p <-> q <-> r", "(p & q", "p @ q", "", ")"]
    for text in malformed:
        try:
            parse(text)
            ok = False
        except FormulaSyntaxError as exc:
            ok = ok and exc.line >= 1 and exc.column >= 1
    code = cli_main(["eval", "p -> (", "--t-algebra", "product", "--assign", "p=1"])
    capsys.readouterr()
    ok = ok and code == 2
    announce(11, ok, "parse-print-parse fixed point on the 50-formula corpus; malformed input gives positioned errors, exit 2")
    assert ok
