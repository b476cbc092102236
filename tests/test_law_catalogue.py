"""The row sweep of reslat.laws against a tuple-at-a-time reading of the same
terms: every tuple in itertools.product order, every clause in order, each
term evaluated by recursion on scalars."""

import itertools
import json
import random
import re

import pytest

from reslat import laws
from reslat.finite import Signature, algebra_from_document, dbl_context, dualize_algebra
from reslat.fixtures import mutant
from reslat.laws import D_LAWS, check_signature_axioms, run_catalogue
from reslat.metric import _grid_context, dbl_axioms_check, dbl_laws_check
from reslat.reports import LawReport, Violation
from reslat.unitval import GridSpec

from conftest import FIXTURES_DIR
from test_grid_tables import BREAKS, RESIDUATED, Broken

FIXTURES = ("l2", "l4", "g3", "bool2", "bool4", "l4-corrupt")


def value(ctx, term, args):
    if isinstance(term, int):
        return args[term]
    if isinstance(term, str):
        return getattr(ctx, term)
    op, x, y = term
    left, right = value(ctx, x, args), value(ctx, y, args)
    return left == right if op == "eq" else getattr(ctx, op)[left][right]


def ref_law(ctx, report, arity, guard, clauses):
    fmt = ctx.fmt
    for args in itertools.product(tuple(ctx.elements()), repeat=arity):
        report.checked += 1
        if guard is not None and not value(ctx, guard, args):
            continue
        for lhs, rel, rhs, note in clauses:
            left, right = value(ctx, lhs, args), value(ctx, rhs, args)
            if not (left == right if rel == "=" else ctx.le[right][left]):
                report.register(Violation(report.law_id, tuple(map(fmt, args)), fmt(left), fmt(right), note))
    return report


def ref_catalogue(ctx):
    return [ref_law(ctx, LawReport(law_id), arity, guard, clauses) for law_id, arity, guard, clauses in D_LAWS]


def ref_axioms(ctx, bl):
    le, fmt = ctx.le, ctx.fmt
    lattice = LawReport("DBL1")
    for x, y in itertools.product(ctx.elements(), repeat=2):
        lattice.checked += 1
        m, j = ctx.meet[x][y], ctx.join[x][y]
        if not (le[m][x] and le[m][y] and le[x][j] and le[y][j]):
            lattice.register(Violation("DBL1", (fmt(x), fmt(y)), fmt(m), fmt(j), "bounds fail"))
        if not (le[ctx.zero][x] and le[x][ctx.one]):
            lattice.register(Violation("DBL1", (fmt(x),), fmt(ctx.zero), fmt(ctx.one), "0/1 not extreme"))
    reports = {"DBL1": lattice}
    for law_id, arity, guard, clauses in laws._AXIOMS[bl]:
        ref_law(ctx, reports.setdefault(law_id, LawReport(law_id)), arity, guard, clauses)
    return list(reports.values())


def dicts(reports):
    return [r.to_dict() for r in reports]


def documents():
    """Each fixture and its order dual."""
    out = {}
    for name in FIXTURES:
        doc = json.loads((FIXTURES_DIR / f"{name}.alg").read_text(encoding="utf-8"))
        alg = algebra_from_document(doc)
        out[name] = alg
        out[f"{name}-dual"] = dualize_algebra(alg)
    return out


def mutants(seed=20190909, per_table=3):
    """Seeded single-entry mutants of the star and arrow tables of each
    fixture and each dual."""
    rng = random.Random(seed)
    out = {}
    for name, alg in documents().items():
        for table in ("monoid", "residuum"):
            for _ in range(per_table):
                i, j = rng.randrange(alg.n), rng.randrange(alg.n)
                out[f"{name}~{table}-{i}-{j}"] = mutant(alg, table, i, j, rng)
    return out


ALGEBRAS = {**documents(), **mutants()}


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_finite_sweep_matches_tuple_at_a_time(name):
    alg = ALGEBRAS[name]
    bl = alg.signature is Signature.BL
    ctx = dbl_context(alg)
    assert dicts(run_catalogue(ctx, D_LAWS)) == dicts(ref_catalogue(ctx))
    assert dicts(check_signature_axioms(ctx, bl)) == dicts(ref_axioms(ctx, bl))


def test_mutants_fail_and_fixtures_pass():
    # The comparison above would also hold between two sweeps that pass
    # everything; the mutants make it compare witnesses.
    failing = set()
    for name, alg in ALGEBRAS.items():
        ctx = dbl_context(alg)
        reports = run_catalogue(ctx, D_LAWS) + check_signature_axioms(ctx, alg.signature is Signature.BL)
        if not all(r.ok for r in reports):
            failing.add(name)
    assert failing & set(documents()) == {"l4-corrupt", "l4-corrupt-dual"}
    assert len(failing) > len(ALGEBRAS) // 2


@pytest.mark.parametrize("how", BREAKS)
@pytest.mark.parametrize("kind", RESIDUATED, ids=lambda k: k.value)
@pytest.mark.parametrize("n", (4, 5, 6))
def test_grid_sweep_matches_tuple_at_a_time(n, kind, how):
    g = GridSpec(n)
    alg = Broken(kind, how, g.points())
    assert dicts(dbl_laws_check(alg, g)) == dicts(ref_catalogue(_grid_context(alg, g)))
    assert dicts(dbl_axioms_check(alg, g)) == dicts(ref_axioms(_grid_context(alg, g), False))


def test_the_bl_wording_is_an_involution_that_changes_exactly_the_order_words():
    notes = {note for _, _, _, clauses in [*D_LAWS, *laws.SIGNATURE_LAWS] for _, _, _, note in clauses}
    for note in notes:
        # Order words: < or > outside an arrow, a constant 0 or 1 standing alone, inf or sup.
        words = re.findall(r"[\w/]+", note)
        ordered = "<" in note or ">" in note.replace("->", "") or bool({"0", "1", "inf", "sup"} & set(words))
        bl = laws._bl_note(note)
        assert laws._bl_note(bl) == note
        assert (bl != note) == ordered, note
    assert laws._bl_note("a>=b iff a->b=0") == "a<=b iff a->b=1"
    assert laws._bl_note("star does not distribute over inf") == "star does not distribute over sup"
    assert laws._bl_note("0/1 not extreme") == "0/1 not extreme"
    assert laws._bl_note("res not antitone in 1st arg") == "res not antitone in 1st arg"


def test_reports_own_their_witnesses_and_as_bl_renames_in_place():
    first, second = LawReport("D13"), LawReport("D13")
    first.register(Violation("D13", ("a",), "x", "y", "a->a != 0"))
    assert second.witnesses == [] and second.ok
    assert laws.as_bl([first]) == [first]
    assert first.law_id == "B13"
    assert first.witnesses[0].to_dict() == {"law": "B13", "args": ["a"], "lhs": "x", "rhs": "y", "note": "a->a != 1"}


def test_a_guard_reading_the_row_is_refused():
    ctx = dbl_context(ALGEBRAS["l4"])
    with pytest.raises(ValueError):
        run_catalogue(ctx, [("X", 2, laws.LE(laws.b, laws.a), ((laws.a, "=", laws.a, ""),))])
