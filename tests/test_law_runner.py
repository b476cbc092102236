"""The one law runner: DBL1 as catalogue clauses, one report per law id,
refused ids, and every catalogue witness of the golden reports replayed from
its tuple alone."""

import operator
import random

import pytest

from reslat import laws
from reslat.finite import check_derived_laws, dbl_context, dualize_algebra, load_algebra
from reslat.laws import D_LAWS, LawContext, check_signature_axioms, run_catalogue
from reslat.metric import SAlgebra, _grid_context, dbl_laws_check
from reslat.unitval import GridSpec

from conftest import FIXTURES_DIR
from test_reports_golden import GOLDEN_REPORTS, build_algebras

N = 4


def chain(**overrides):
    """The chain 0 < 1 < .. < N-1 as a DBL context, with any callable or
    constant replaced."""
    parts = {
        "elements": lambda: range(N),
        "star": lambda x, y: min(x + y, N - 1),
        "res": lambda x, y: max(y - x, 0),
        "meet": min,
        "join": max,
        "le": operator.le,
        "zero": 0,
        "one": N - 1,
        "fmt": str,
    }
    return LawContext(**{**parts, **overrides})


def lattice_report(ctx):
    reports = check_signature_axioms(ctx)
    assert reports[0].law_id == "DBL1"
    return reports[0]


def test_dbl1_fails_where_the_meet_returns_the_larger_element():
    report = lattice_report(chain(meet=max))
    # max(a, b) is below a only where b <= a, and below b only where a <= b.
    assert (report.checked, report.failures) == (N * N, N * N - N)
    assert report.lines()[1] == "  DBL1 violated at (0, 1): lhs=0 rhs=1 [bounds fail]"


def test_dbl1_fails_where_zero_is_not_the_least_element():
    report = lattice_report(chain(zero=1))
    assert (report.checked, report.failures) == (N * N, N)
    assert {w.note for w in report.witnesses} == {"0/1 not extreme"}
    assert report.lines()[1] == "  DBL1 violated at (0, 0): lhs=0 rhs=1 [0/1 not extreme]"


@pytest.mark.parametrize("bl", (False, True))
def test_signature_axioms_fill_one_report_per_law_in_order(bl):
    reports = check_signature_axioms(chain(), bl)
    assert [r.law_id for r in reports] == ["DBL1", "DBL2", "DBL3", "DBL4", "DBL5"]
    # DBL2 is three entries: unit (arity 1), commutativity (2), associativity (3).
    assert reports[1].checked == N + N**2 + N**3
    assert all(r.ok for r in reports)


def test_an_unknown_d_law_on_the_grid_is_refused():
    with pytest.raises(ValueError, match="D16"):
        dbl_laws_check(SAlgebra.of("goedel"), GridSpec(3), ["D16"])


def test_a_d_law_on_a_bl_algebra_is_refused():
    with pytest.raises(ValueError, match="D3"):
        check_derived_laws(load_algebra(FIXTURES_DIR / "l4.alg"), ["D3"])
    with pytest.raises(ValueError, match="not D3, B16$"):
        check_derived_laws(load_algebra(FIXTURES_DIR / "l4.alg"), ["b2", "D3", "B16"])


def test_a_b_law_on_a_dbl_algebra_is_refused():
    with pytest.raises(ValueError, match="B3"):
        check_derived_laws(dualize_algebra(load_algebra(FIXTURES_DIR / "l4.alg")), ["B3"])


def test_a_lazy_table_computes_each_pair_once_when_first_read():
    calls = []

    def fn(x, y):
        calls.append((x, y))
        return (3 * x + y) % 5

    table = laws.lazy_table(fn)
    rng = random.Random(22)
    pairs = [(rng.randrange(6), rng.randrange(6)) for _ in range(200)]
    assert [table[x][y] for x, y in pairs] == [(3 * x + y) % 5 for x, y in pairs]
    assert list(map(table[2].__getitem__, range(6))) == [(6 + y) % 5 for y in range(6)]
    assert sorted(calls) == sorted(set(pairs) | {(2, y) for y in range(6)})


def test_a_context_wraps_each_function_and_keeps_each_table():
    star = tuple(tuple(min(x + y, N - 1) for y in range(N)) for x in range(N))
    ctx = chain(star=star)
    assert ctx.star is star
    assert all(isinstance(getattr(ctx, op), laws.LazyTable) for op in ("res", "meet", "join", "le"))
    assert [[ctx.res[x][y] for y in range(N)] for x in range(N)] == [[max(y - x, 0) for y in range(N)] for x in range(N)]
    assert all(r.ok for r in check_signature_axioms(ctx))


def test_the_runner_names_every_unknown_id():
    with pytest.raises(ValueError, match="D0, D16"):
        run_catalogue(chain(), D_LAWS, ["d16", "D2", "d0"])


# -- witness replay ---------------------------------------------------------------

ALGEBRAS = build_algebras()
UNNOTE = {bl: dbl for dbl, bl in laws._BL_NOTES.items()}


def evaluate(ctx, term, args):
    if isinstance(term, int):
        return args[term]
    if isinstance(term, str):
        return getattr(ctx, term)
    op, x, y = term
    left, right = evaluate(ctx, x, args), evaluate(ctx, y, args)
    return left == right if op == "eq" else getattr(ctx, op)[left][right]


def context(key):
    name, kind = key.split("/")
    if kind.startswith("grid-"):
        return _grid_context(SAlgebra.of(name), GridSpec(4))
    return dbl_context(ALGEBRAS[name])


def entries(law_id):
    """The catalogue entries of a report id, in the DBL form, and whether the
    id is a BL one."""
    head = law_id.rstrip("0123456789")
    bl = head in ("BL", "B")
    dbl_id = {"BL": "DBL", "B": "D"}.get(head, head) + law_id[len(head):]
    catalogue = [laws._LATTICE, *laws._AXIOMS[bl]] if head in ("DBL", "BL") else D_LAWS
    return [entry for entry in catalogue if entry[0] == dbl_id], bl


def replays(ctx, law_id, witness):
    """Whether some clause of the law, at the witness's tuple and with its
    note, fails with the witness's two sides."""
    element = {ctx.fmt(x): x for x in ctx.elements()}
    args = tuple(element[a] for a in witness["args"])
    found, bl = entries(law_id)
    note = witness.get("note", "")
    note = UNNOTE.get(note, note) if bl else note
    for _, arity, guard, clauses in found:
        if arity != len(args) or (guard is not None and not evaluate(ctx, guard, args)):
            continue
        for lhs, rel, rhs, clause_note in clauses:
            left, right = evaluate(ctx, lhs, args), evaluate(ctx, rhs, args)
            fails = not (left == right if rel == "=" else ctx.le[right][left])
            if clause_note == note and fails and (ctx.fmt(left), ctx.fmt(right)) == (witness["lhs"], witness["rhs"]):
                return True
    return False


CATALOGUE_HEADS = ("DBL", "BL", "D", "B")  # G1..G4 and L1..L4 are radius lemmas
WITNESSES = {
    key: [(r["law"], w) for r in reports if r["law"].rstrip("0123456789") in CATALOGUE_HEADS for w in r["witnesses"]]
    for key, reports in GOLDEN_REPORTS.items()
}
WITNESSES = {key: found for key, found in WITNESSES.items() if found}


def test_the_golden_corpus_has_witnesses_of_every_kind():
    heads = {law_id.rstrip("0123456789") for found in WITNESSES.values() for law_id, _ in found}
    assert heads == set(CATALOGUE_HEADS)


@pytest.mark.parametrize("key", sorted(WITNESSES))
def test_every_catalogue_witness_replays_from_its_tuple(key):
    ctx = context(key)
    assert [w for law_id, w in WITNESSES[key] if not replays(ctx, law_id, w)] == []


def test_a_tampered_witness_does_not_replay():
    key = "l4-corrupt/axioms"
    ctx = context(key)
    law_id, witness = WITNESSES[key][0]
    assert replays(ctx, law_id, witness)
    swapped = {**witness, "lhs": witness["rhs"], "rhs": witness["lhs"]}
    renoted = {**witness, "note": "unit fails"}
    moved = {**witness, "args": witness["args"][1:] + witness["args"][:1]}
    assert not any(replays(ctx, law_id, w) for w in (swapped, renoted, moved))
