"""What the formula parser and printer make of seeded inputs, pinned by sha256.

Three sets of inputs, each rebuilt here from a seed or a rule:

- token strings: 1 to 14 tokens drawn from the formula alphabet, with
  space, newline and an unknown character among them;
- operator chains: 1 to 7 binary operators between operands, which is
  where precedence and associativity decide the tree;
- nesting shapes at depths 95 to 105, around ``_Parser.MAX_DEPTH``: the
  four shapes of tests/test_formulas.py, the two lattice chains, and three
  ``<->`` chains (flat, nested in parentheses, closing a chain of ``->``);
- random formula trees.

A string's outcome is its tree and ``to_text`` of it, or the exception's
class, message, line and column; a tree's is ``to_text(tree)``.  The digests were
taken from the parser that had one method per precedence level and the
printer that had one case per connective, so a change in what the parser
accepts, how it groups, where it points an error or how the printer
parenthesises shows here.
"""

import hashlib
import random

import pytest

from reslat.errors import FormulaSyntaxError
from reslat.formulas import Atom, Bottom, Conj, Iff, Impl, Join, Meet, Neg, Top, parse, to_text

TOKENS = ["p", "q", "r", "0", "1", "(", ")", "!", "&", "^", "|", "->", "<->", " ", "\n", "@"]
LEAVES = [Atom("p"), Atom("q"), Atom("r"), Bottom(), Top()]
BINARY = [Conj, Meet, Join, Impl, Iff]


def token_strings(seed: int = 2027, count: int = 5000) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 14))) for _ in range(count)]


def operator_chains(seed: int = 2027, count: int = 3000) -> list[str]:
    rng = random.Random(seed)
    operands, operators = ["p", "q", "r", "0", "1", "!p", "(q)"], [" & ", " ^ ", " | ", " -> ", " <-> "]
    chains = []
    for _ in range(count):
        text = rng.choice(operands)
        for _ in range(rng.randint(1, 7)):
            text += rng.choice(operators) + rng.choice(operands)
        chains.append(text)
    return chains


def nesting_shapes() -> list[str]:
    shapes = []
    for depth in range(95, 106):
        shapes += [
            "(" * depth + "p" + ")" * depth,
            "!" * depth + "p",
            *(op.join(["p"] * (depth + 1)) for op in (" -> ", " & ", " ^ ", " | ", " <-> ")),
            "p <-> (" * depth + "p" + ")" * depth,
            "p -> " * (depth - 1) + "p <-> p",
        ]
    return shapes


def random_tree(rng: random.Random, size: int):
    if size <= 1:
        return rng.choice(LEAVES)
    if rng.random() < 0.2:
        return Neg(random_tree(rng, size - 1))
    left = rng.randint(1, size - 1)
    return rng.choice(BINARY)(random_tree(rng, left), random_tree(rng, size - left))


def random_trees(seed: int = 2027, count: int = 4000) -> list:
    rng = random.Random(seed)
    return [random_tree(rng, rng.randint(1, 14)) for _ in range(count)]


def outcome(text: str) -> str:
    try:
        tree = parse(text)
        return f"{to_text(tree)}\t{tree!r}"
    except FormulaSyntaxError as exc:
        return f"{type(exc).__name__} {exc.line}:{exc.column} {exc}"


def digest(pairs) -> str:
    return hashlib.sha256("\n".join(f"{key!r}\t{value}" for key, value in pairs).encode()).hexdigest()


RECORDS = {
    "token strings": lambda: digest((s, outcome(s)) for s in token_strings()),
    "operator chains": lambda: digest((s, outcome(s)) for s in operator_chains()),
    "nesting shapes": lambda: digest((s, outcome(s)) for s in nesting_shapes()),
    "random trees": lambda: digest((tree, to_text(tree)) for tree in random_trees()),
}

DIGESTS = {
    "token strings": "86a9225dfaea8173a8598fe903be09cf55a17eb778759a3f5bc17e287c1f5ece",
    "operator chains": "4c0f3aea42071ae2ce7a1d74ee41d6bfcbeb6ceda8d2eda19d9a937e7f5b2f79",
    "nesting shapes": "7ed5f4ba1985ba27b1c92c74925a12c3eba1a9e2445f050e02a9ececa659f923",
    "random trees": "6e7a126bae913be2e1d89ddbb9734b38dfb6b190e0a8907a0ec2b5d1addbab57",
}


@pytest.mark.parametrize("name", RECORDS)
def test_parser_and_printer_outcomes_are_unchanged(name):
    assert RECORDS[name]() == DIGESTS[name]
