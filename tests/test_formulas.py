import collections
import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reslat.formulas as formulas_module
from formula_corpus import CORPUS
from reslat.errors import (
    DrasticNotResiduated,
    FormulaSyntaxError,
    UnbalancedParens,
    UnboundAtom,
    UnknownToken,
)
from reslat.finite import Signature, dualize_algebra
from reslat.fixtures import mutant
from reslat.formulas import (
    Atom,
    Bottom,
    Conj,
    Iff,
    Impl,
    Join,
    Meet,
    Neg,
    Top,
    _Parser,
    atoms,
    check_prelinearity_tautology,
    desugar,
    evaluate,
    parse,
    parse_valuation,
    sweep_values,
    to_text,
)
from reslat.norms import NormFamily, NormKind, apply_norm, residuum
from reslat.unitval import ONE, ZERO, GridSpec, UnitValue

u = UnitValue
T_LUK = NormFamily.t_norm(NormKind.LUKASIEWICZ)
T_ALGS = [NormFamily.t_norm(k) for k in (NormKind.LUKASIEWICZ, NormKind.GOEDEL, NormKind.PRODUCT)]


class TestParsing:
    def test_implication(self):
        assert parse("p -> q") == Impl(Atom("p"), Atom("q"))

    def test_join_of_implications(self):
        assert parse("(p -> q) | (q -> p)") == Join(Impl(Atom("p"), Atom("q")), Impl(Atom("q"), Atom("p")))

    def test_conj_left_associative(self):
        assert parse("p & q & r") == Conj(Conj(Atom("p"), Atom("q")), Atom("r"))

    def test_impl_right_associative(self):
        assert parse("p -> q -> r") == Impl(Atom("p"), Impl(Atom("q"), Atom("r")))

    def test_precedence_tower(self):
        # ! > & > (^, |) > (->, <->)
        assert parse("!p & q") == Conj(Neg(Atom("p")), Atom("q"))
        assert parse("p & q | r") == Join(Conj(Atom("p"), Atom("q")), Atom("r"))
        assert parse("p | q -> r") == Impl(Join(Atom("p"), Atom("q")), Atom("r"))
        assert parse("p ^ q | r") == Join(Meet(Atom("p"), Atom("q")), Atom("r"))

    def test_constants(self):
        assert parse("0") == Bottom()
        assert parse("1") == Top()

    def test_iff_non_associative(self):
        with pytest.raises(FormulaSyntaxError, match="non-associative"):
            parse("p <-> q <-> r")
        with pytest.raises(FormulaSyntaxError):
            parse("p <-> q -> r")
        assert parse("p -> q <-> r") == Impl(Atom("p"), Iff(Atom("q"), Atom("r")))

    def test_error_positions(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p -> (")
        assert exc.value.line == 1 and exc.value.column == 7
        with pytest.raises(UnknownToken) as exc:
            parse("p @ q")
        assert exc.value.column == 3
        with pytest.raises(UnknownToken):
            parse("P")  # atoms start lowercase
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p ->\n  (q &")
        assert exc.value.line == 2

    def test_unbalanced_parens(self):
        with pytest.raises(UnbalancedParens):
            parse("(p & q")
        with pytest.raises(UnbalancedParens):
            parse("p & q)")
        with pytest.raises(UnbalancedParens):
            parse(")")


LIMIT = _Parser.MAX_DEPTH


def nested(shape: str, depth: int) -> str:
    """A formula ``depth`` levels deep, built from one kind of nesting."""
    if shape == "parens":
        return "(" * depth + "p" + ")" * depth
    if shape == "negations":
        return "!" * depth + "p"
    operator = {"implications": " -> ", "conjunctions": " & "}[shape]
    return operator.join(["p"] * (depth + 1))


class TestNestingLimit:
    SHAPES = ("parens", "negations", "implications", "conjunctions")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_at_limit_round_trips_and_evaluates(self, shape, fixture_algebras):
        f = parse(nested(shape, LIMIT))
        assert parse(to_text(f)) == f
        assert atoms(f) == ("p",)
        assert desugar(desugar(f)) == desugar(f)
        assert evaluate(f, T_LUK, {"p": u(1)}) == ONE
        l4 = fixture_algebras["l4"]
        assert evaluate(f, l4, {"p": "1"}) == "1"

    @pytest.mark.parametrize(
        "shape, column",
        [("parens", LIMIT + 1), ("negations", LIMIT + 1),
         ("implications", 5 * LIMIT + 3), ("conjunctions", 4 * LIMIT + 3)],
    )
    def test_one_past_limit_points_at_the_offending_token(self, shape, column):
        with pytest.raises(FormulaSyntaxError, match="nested deeper") as exc:
            parse(nested(shape, LIMIT + 1))
        assert (exc.value.line, exc.value.column) == (1, column)

    def test_depth_is_nesting_not_length(self):
        # siblings do not add up: LIMIT parenthesised operands side by side
        wide = " & ".join(["(" * (LIMIT // 2) + "p" + ")" * (LIMIT // 2)] * 2)
        assert atoms(parse(wide)) == ("p",)
        assert parse("(" * LIMIT + "p" + ")" * LIMIT + " -> q") == Impl(Atom("p"), Atom("q"))


formulas = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), Atom("r"), Bottom(), Top()]),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Conj, sub, sub),
        st.builds(Impl, sub, sub),
        st.builds(Meet, sub, sub),
        st.builds(Join, sub, sub),
        st.builds(Iff, sub, sub),
    ),
    max_leaves=20,
)


class TestPrinting:
    def test_corpus_round_trip(self):
        for text in CORPUS:
            ast = parse(text)
            assert parse(to_text(ast)) == ast, text

    def test_print_is_fixed_point_on_corpus(self):
        for text in CORPUS:
            printed = to_text(parse(text))
            assert to_text(parse(printed)) == printed, text

    @given(formulas)
    def test_round_trip_random(self, ast):
        assert parse(to_text(ast)) == ast


BINARY = [Conj, Impl, Meet, Join, Iff]


class TestNodes:
    """Nodes are immutable values: equal by type and fields, hashable, and
    matched by positional class patterns."""

    @pytest.mark.parametrize("a, b", [*itertools.permutations(BINARY, 2), (Bottom, Top), (Top, Bottom)])
    def test_same_fields_different_type_unequal(self, a, b):
        fields = () if a in (Bottom, Top) else (Atom("p"), Atom("q"))
        assert a(*fields) != b(*fields)
        assert not a(*fields) == b(*fields)

    def test_equal_nodes_hash_equal_and_dedupe(self):
        def make():
            return Join(Conj(Atom("p"), Neg(Atom("q"))), Top())

        assert make() == make() and make() is not make()
        assert hash(make()) == hash(make())
        assert len({make(), make(), desugar(make()), desugar(make())}) == 2
        assert Atom("p") != ("p",) and Bottom() != ()

    def test_fields_cannot_be_assigned(self):
        node = Impl(Atom("p"), Bottom())
        with pytest.raises(AttributeError):
            node.lhs = Atom("q")
        with pytest.raises(AttributeError):
            node.extra = 1
        with pytest.raises(AttributeError):
            Atom("p").name = "q"
        assert node == Impl(Atom("p"), Bottom())

    def test_positional_class_patterns_match(self):
        match parse("!p -> (q & 0)"):
            case Impl(Neg(Atom(name)), Conj(rhs, Bottom())):
                assert (name, rhs) == ("p", Atom("q"))
            case _:
                pytest.fail("class patterns did not match")

    def test_arity_repr_and_copies(self):
        with pytest.raises(TypeError):
            Conj(Atom("p"))
        with pytest.raises(TypeError):
            Bottom(Atom("p"))
        node = Conj(Atom("p"), Neg(Bottom()))
        assert repr(node) == "Conj(lhs=Atom(name='p'), rhs=Neg(arg=Bottom()))"
        assert copy.copy(node) == node and copy.deepcopy(node) == node
        assert pickle.loads(pickle.dumps(node)) == node


class TestDesugaring:
    @given(formulas)
    def test_idempotent(self, ast):
        core = desugar(ast)
        assert desugar(core) == core

    def test_definitions(self):
        p, q = Atom("p"), Atom("q")
        assert desugar(Neg(p)) == Impl(p, Bottom())
        assert desugar(Top()) == Impl(Bottom(), Bottom())
        assert desugar(Meet(p, q)) == Conj(p, Impl(p, q))
        assert desugar(Iff(p, q)) == Conj(Impl(p, q), Impl(q, p))
        a = Impl(Impl(p, q), q)
        b = Impl(Impl(q, p), p)
        assert desugar(Join(p, q)) == Conj(a, Impl(a, b))

    def test_join_chain_lowers_to_six_nodes_per_join(self):
        joins = 200
        chain = Atom("p")
        for k in range(joins):
            chain = Join(chain, Atom(f"q{k}"))
        nodes, stack = {}, [desugar(chain)]
        while stack:  # each node object of the lowered DAG once
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node[1:] if isinstance(node, (Conj, Impl)) else ())
        kinds = collections.Counter(type(node) for node in nodes.values())
        assert kinds == {Conj: joins, Impl: 5 * joins, Atom: joins + 1}


class TestEvaluation:
    def test_lukasiewicz_spot_values(self):
        v = {"p": u("3/10"), "q": u("4/5")}
        assert evaluate(parse("p -> q"), T_LUK, v) == ONE
        assert evaluate(parse("q -> p"), T_LUK, v) == Fraction(1, 2)

    def test_top_is_tautology(self, fixture_algebras):
        assert evaluate(parse("0 -> 0"), T_LUK, {}) == ONE
        for alg in fixture_algebras.values():
            assert evaluate(parse("0 -> 0"), alg, {}) == alg.labels[alg.top]

    def test_finite_l4(self, fixture_algebras):
        v = {"p": "1/3", "q": "2/3"}
        assert evaluate(parse("p & q"), fixture_algebras["l4"], v) == "0"

    def test_dbl_backend_uses_tables(self, fixture_algebras):
        dual = dualize_algebra(fixture_algebras["l4"])
        # 0 absorbs &: in the dual signature that is the top, the old bottom
        assert evaluate(parse("0"), dual, {}) == dual.labels[dual.top] == "0"
        assert evaluate(parse("1"), dual, {}) == dual.labels[dual.bottom] == "1"

    @pytest.mark.parametrize("text", CORPUS)
    def test_an_algebra_and_its_dual_give_the_same_values(self, text, fixture_algebras, corrupt_algebra):
        # the dual has the same tables and labels, and is read in the same DBL form
        f = parse(text)
        for alg in [*fixture_algebras.values(), corrupt_algebra]:
            assert sweep_values(f, dualize_algebra(alg), alg.labels) == sweep_values(f, alg, alg.labels)

    def test_unbound_atom(self):
        with pytest.raises(UnboundAtom):
            evaluate(parse("p -> q"), T_LUK, {"p": u(1, 2)})

    def test_drastic_rejected(self):
        with pytest.raises(DrasticNotResiduated):
            evaluate(parse("p -> q"), NormFamily.t_norm(NormKind.DRASTIC), {"p": u(1), "q": u(0)})

    def test_snorm_side_rejected(self):
        with pytest.raises(ValueError):
            evaluate(parse("p"), NormFamily.s_norm(NormKind.PRODUCT), {"p": u(1)})

    @pytest.mark.parametrize(
        "algebra", [object(), None, "lukasiewicz", NormKind.GOEDEL, Signature.BL], ids=lambda a: type(a).__name__
    )
    def test_an_algebra_of_neither_kind_is_refused(self, algebra):
        # A Signature is a class of reslat.finite, but not a finite algebra.
        with pytest.raises(TypeError, match="unsupported algebra"):
            evaluate(parse("p"), algebra, {"p": u(1)})
        with pytest.raises(TypeError, match="unsupported algebra"):
            sweep_values(parse("p"), algebra, [ZERO, ONE])

    def test_a_subclass_of_a_finite_algebra_is_finite(self, fixture_algebras):
        alg = fixture_algebras["l4"]
        sub = copy.copy(alg)
        sub.__class__ = type("Sub", (type(alg),), {})
        f = parse("(p -> q) | !p")
        assert sweep_values(f, sub, alg.labels) == sweep_values(f, alg, alg.labels)


def semantic_value(f, algebra, valuation, lattice=True):
    """Reference: the formula's value by the lattice semantics of the sugar
    (meet = min, join = max), walking the formula before desugaring, one
    valuation at a time.  ``algebra`` is a t-norm family or a finite algebra,
    read in BL terms from its own tables: 0 absorbs ``&``, 1 is its unit, and
    meet and join are the lattice's in the BL order (the order of a BL
    signature, its reverse for a DBL one).  Without ``lattice``, meet, join
    and 1 are read by their definitions in ``&``, ``->`` and 0 instead, as an
    algebra with a broken table needs."""
    if isinstance(algebra, NormFamily):
        zero, one, meet, join = ZERO, ONE, min, max
        star = lambda x, y: apply_norm(algebra, x, y)
        res = lambda x, y: residuum(algebra, x, y)
    else:
        labels, index = algebra.labels, algebra.index
        table = lambda rows: lambda x, y: labels[rows[index(x)][index(y)]]
        star, res = table(algebra.monoid), table(algebra.residuum)
        zero, one = labels[algebra.bottom], labels[algebra.top]
        meet, join = table(algebra.meet), table(algebra.join)
        if algebra.signature is not Signature.BL:
            zero, one, meet, join = one, zero, join, meet
    if not lattice:
        one = res(zero, zero)
        meet = lambda x, y: star(x, res(x, y))
        join = lambda x, y: meet(res(res(x, y), y), res(res(y, x), x))
    return _semantic(f, (zero, one, star, res, meet, join), valuation)


def _semantic(f, ops, valuation):
    zero, one, star, res, meet, join = ops
    match f:
        case Atom(name):
            return valuation[name]
        case Bottom():
            return zero
        case Top():
            return one
        case Neg(a):
            return res(_semantic(a, ops, valuation), zero)
    a, b = _semantic(f.lhs, ops, valuation), _semantic(f.rhs, ops, valuation)
    match f:
        case Conj():
            return star(a, b)
        case Impl():
            return res(a, b)
        case Meet():
            return meet(a, b)
        case Join():
            return join(a, b)
    return star(res(a, b), res(b, a))


small_formulas = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), Atom("r"), Bottom(), Top()]),
    lambda sub: st.one_of(*(st.builds(op, sub, sub) for op in (Conj, Impl, Meet, Join, Iff)), st.builds(Neg, sub)),
    max_leaves=12,
)


@pytest.fixture
def row_calls(monkeypatch):
    """The length of each row that evaluation maps through ``&`` and
    through ``->``, keyed by "star" and "arrow"."""
    calls, operations = collections.defaultdict(list), formulas_module._operations

    def counted(algebra):
        read, bottom, top, star, arrow, show = operations(algebra)
        count = lambda key, op: lambda xs, ys: calls[key].append(len(xs)) or op(xs, ys)
        return read, bottom, top, count("star", star), count("arrow", arrow), show

    monkeypatch.setattr(formulas_module, "_operations", counted)
    return calls


class TestDagEvaluation:
    @given(small_formulas, st.lists(st.sampled_from(GridSpec(6).points()), min_size=3, max_size=3))
    def test_random_formulas_round_trip_and_evaluate_by_the_semantics(self, ast, values):
        assert parse(to_text(ast)) == ast
        valuation = dict(zip("pqr", values))
        for family in T_ALGS:
            assert evaluate(ast, family, valuation) == semantic_value(ast, family, valuation)

    @settings(deadline=None)
    @given(small_formulas, st.lists(st.integers(0, 63), min_size=3, max_size=3))
    def test_lowering_keeps_values_and_atoms(self, fixture_algebras, corrupt_algebra, ast, picks):
        core = desugar(ast)
        assert atoms(core) == atoms(ast)
        points = GridSpec(6).points()
        for family in T_ALGS:
            valuation = {name: points[i % len(points)] for name, i in zip("pqr", picks)}
            assert evaluate(core, family, valuation) == evaluate(ast, family, valuation)
        for alg in [*fixture_algebras.values(), corrupt_algebra]:
            valuation = {name: alg.labels[i % alg.n] for name, i in zip("pqr", picks)}
            assert evaluate(core, alg, valuation) == evaluate(ast, alg, valuation)

    @pytest.mark.parametrize("family", T_ALGS, ids=lambda f: f.kind.value)
    def test_join_chain_maps_six_rows_per_join(self, family, row_calls):
        joins = 40
        chain = parse(" | ".join(["p"] + [f"q{k}" for k in range(joins)]))
        valuation = {"p": u(1, 3), **{f"q{k}": u(k, 2 * joins) for k in range(joins)}}
        assert evaluate(chain, family, valuation) == max(valuation.values())
        # one conjunction and five implications per lowered join, on one-entry rows
        assert row_calls == {"star": [1] * joins, "arrow": [1] * (5 * joins)}

    @pytest.mark.parametrize("family", T_ALGS, ids=lambda f: f.kind.value)
    def test_sweep_walks_once_per_prefix(self, family, row_calls):
        results = sweep_values(parse("p | q"), family, GridSpec(4).points())
        assert len(results) == 25
        # five walks, one per value of p, each along the five values of q
        assert row_calls == {"star": [5] * 5, "arrow": [5] * 25}

    @pytest.mark.parametrize(
        "text, first", [("(q ^ p) <-> r", "q"), ("!(p | r) -> q", "r"), ("1 -> p & (r <-> q)", "r"), ("s ^ (r | p)", "s")]
    )
    @pytest.mark.parametrize("backend", ["lukasiewicz", "l4"])
    def test_unbound_atom_is_the_first_in_atoms_order(self, fixture_algebras, backend, text, first):
        f = parse(text)
        if backend == "l4":
            algebra, valuation = fixture_algebras["l4"], {"p": "1/3"}
        else:
            algebra, valuation = T_LUK, {"p": u(1, 3)}
        assert first == next(name for name in atoms(f) if name != "p")
        with pytest.raises(UnboundAtom, match=f"^atom '{first}' has no value$"):
            evaluate(f, algebra, valuation)


@pytest.fixture(scope="module")
def finite_cases(fixture_algebras):
    """Each fixture and its order dual, read by the lattice semantics, and
    two seeded star mutants of each, read by the definitions of the sugar."""
    rng, cases = random.Random(20191025), []
    for alg in fixture_algebras.values():
        for base in (alg, dualize_algebra(alg)):
            cases.append((base, True))
            for _ in range(2):
                i, j = rng.randrange(base.n), rng.randrange(base.n)
                cases.append((mutant(base, "monoid", i, j, rng), False))
    return cases


off_grid = st.fractions(min_value=0, max_value=1, max_denominator=10**6).map(UnitValue)


class TestRowsAgreeWithTheReference:
    @settings(deadline=None)
    @given(small_formulas, st.lists(off_grid, min_size=3, max_size=3))
    def test_assign_off_the_grid(self, ast, values):
        valuation = dict(zip("pqr", values))
        for family in T_ALGS:
            assert evaluate(ast, family, valuation) == semantic_value(ast, family, valuation)

    @settings(deadline=None, max_examples=40)
    @given(small_formulas, st.integers(2, 6))
    def test_grid_sweeps(self, ast, denominator):
        points, names = GridSpec(denominator).points(), atoms(ast)
        for family in T_ALGS:
            results = sweep_values(ast, family, points)
            assert list(results) == list(itertools.product(points, repeat=len(names)))
            for combo, value in results.items():
                assert value == semantic_value(ast, family, dict(zip(names, combo)))

    @settings(deadline=None, max_examples=40)
    @given(small_formulas)
    def test_carrier_sweeps_and_assignments(self, finite_cases, ast):
        names = atoms(ast)
        for alg, lattice in finite_cases:
            results = sweep_values(ast, alg, alg.labels)
            assert list(results) == list(itertools.product(alg.labels, repeat=len(names)))
            for combo, value in results.items():
                valuation = dict(zip(names, combo))
                assert value == semantic_value(ast, alg, valuation, lattice) == evaluate(ast, alg, valuation)


class TestSemanticProperties:
    @pytest.mark.parametrize("family", T_ALGS, ids=lambda f: f.kind.value)
    def test_prelinearity(self, family):
        report = check_prelinearity_tautology(family, GridSpec(8))
        assert report.ok and report.checked == 81

    def test_prelinearity_finite(self, fixture_algebras):
        for name, alg in fixture_algebras.items():
            assert check_prelinearity_tautology(alg).ok, name

    def test_prelinearity_on_the_duals(self, fixture_algebras):
        for name, alg in fixture_algebras.items():
            report = check_prelinearity_tautology(dualize_algebra(alg))
            assert report.ok and report.checked == alg.n**2, name

    @pytest.mark.parametrize("family", T_ALGS, ids=lambda f: f.kind.value)
    def test_meet_is_lattice_min(self, family):
        f = parse("p ^ q")
        for (p, q), value in sweep_values(f, family, GridSpec(8).points()).items():
            assert value == min(p, q)

    @pytest.mark.parametrize("family", T_ALGS, ids=lambda f: f.kind.value)
    def test_join_is_lattice_max(self, family):
        f = parse("p | q")
        for (p, q), value in sweep_values(f, family, GridSpec(8).points()).items():
            assert value == max(p, q)

    def test_meet_join_on_finite(self, fixture_algebras):
        meet_f, join_f = parse("p ^ q"), parse("p | q")
        for alg in fixture_algebras.values():
            for a, b in itertools.product(alg.labels, repeat=2):
                v = {"p": a, "q": b}
                assert evaluate(meet_f, alg, v) == alg.labels[alg.meet[alg.index(a)][alg.index(b)]]
                assert evaluate(join_f, alg, v) == alg.labels[alg.join[alg.index(a)][alg.index(b)]]

    def test_iff_is_complemented_distance_on_lukasiewicz(self):
        f = parse("p <-> q")
        for (p, q), value in sweep_values(f, T_LUK, GridSpec(16).points()).items():
            assert value == 1 - abs(p - q)


class TestValuations:
    def test_parse_inline(self):
        v = parse_valuation("p=3/10, q=4/5")
        assert v == {"p": u("3/10"), "q": u("4/5")}

    def test_parse_lines_and_comments(self):
        v = parse_valuation("p = 1/2\n# comment\nq = 0.25\n")
        assert v == {"p": u(1, 2), "q": u(1, 4)}

    def test_finite_labels(self):
        assert parse_valuation("p=2/3,q=0", finite=True) == {"p": "2/3", "q": "0"}

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_valuation("p 1/2")

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("text", ["p=1,p=0", "p=1, q=0\n p = 1", "q=0\np=1/2\n# again\np=1/2"])
    def test_atom_given_twice_is_refused(self, text, finite):
        with pytest.raises(ValueError, match="^atom 'p' is assigned more than once$"):
            parse_valuation(text, finite=finite)

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("entry", ["=1/2", "P=1/2", "1x=0", "p q=1", "p-1=0", "_p=1"])
    def test_name_that_is_not_an_atom_is_refused(self, entry, finite):
        with pytest.raises(ValueError) as exc:
            parse_valuation(f"p=1, {entry}", finite=finite)
        assert str(exc.value) == f"valuation entry {entry!r} does not name an atom"

    @pytest.mark.parametrize("name", ["p", "q1", "xY_2", "a_"])
    def test_every_atom_name_is_accepted(self, name):
        assert parse(name) == Atom(name)
        assert parse_valuation(f"{name}=1") == {name: ONE}

    def test_atoms_helper(self):
        assert atoms(parse("(p -> q) | (q -> p)")) == ("p", "q")
        assert atoms(parse("0 -> 0")) == ()


# -- tokens on demand ------------------------------------------------------------


@pytest.fixture
def made_tokens(monkeypatch):
    """The number of tokens the tokenizer makes while a test parses."""
    made = [0]

    class Counted(formulas_module._Token):
        __slots__ = ()

        def __init__(self, *fields):
            made[0] += 1
            super().__init__(*fields)

    monkeypatch.setattr(formulas_module, "_Token", Counted)
    return made


@pytest.mark.parametrize("formula", ["(" * 500 + "p" + ")" * 500, "!" * 2000 + "p"], ids=["parens", "negations"])
def test_a_deep_input_is_refused_after_the_tokens_it_reads(formula, made_tokens):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse(formula)
    assert (exc.value.line, exc.value.column) == (1, _Parser.MAX_DEPTH + 1)
    # The refused token is the 101st: none past it is made.
    assert made_tokens[0] == _Parser.MAX_DEPTH + 1


def test_a_parse_makes_each_token_once(made_tokens):
    assert parse(" p ->\n(q & !r) <-> 1 ") == Impl(Atom("p"), Iff(Conj(Atom("q"), Neg(Atom("r"))), Top()))
    assert made_tokens[0] == 11  # ten tokens and the end of input


@pytest.mark.parametrize(
    "text, where",
    [
        ("(" * 500 + "p" + ")" * 500 + " @", (1, 1003)),
        ("!" * 2000 + "p\n  #", (2, 3)),
        ("p -> -> q\n\n -", (3, 2)),
        (")" + " " * 10 + "P", (1, 12)),
        ("p <- q", (1, 3)),
    ],
    ids=["after-deep-parens", "after-deep-negations", "after-a-missing-operand", "after-a-stray-paren", "half-an-arrow"],
)
def test_an_unknown_character_is_reported_before_an_earlier_error(text, where, made_tokens):
    with pytest.raises(UnknownToken) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == where
    assert made_tokens[0] == 0
