"""Seeded inputs and expected outcomes for the reslat benchmark workloads.

``build(name, seed)`` returns a :class:`Workload`: the ops one pass runs (each
a ``reslat`` argv plus the outcome it must produce), the input files those ops
read, and the inputs the set-up probe loads.  Algebras come from the public
``reslat.fixtures`` builders, plus direct products and single-entry ``star``
mutations built here.  Nothing in this module depends on anything but the
seed, so the same seed gives byte-identical inputs.

Expected outcomes come from two places.  Law reports (``norms``, ``metric``,
``algebra check``) are compared against ``expected.json``, recorded by
``record.py``; for the valid structures that record is "every law passes",
which is what the paper proves.  Everything else is computed here from first
principles: evaluation values of join chains on a chain are the maximum of
the atom values, prelinearity and modus ponens are tautologies, the order
dual swaps the order and the bounds, and a discrete topology lists every
subset.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from reslat.fixtures import boolean_algebra, goedel_chain, lukasiewicz_chain

WORKLOADS = ("unit-grid", "finite-tables", "formula-eval")

# Fixed seed of the mutant pool: a run's seed picks mutants from the pool, so
# every mutant has one recorded expectation in expected.json.
POOL_SEED = 20190909
MUTANTS_PER_BASE = 4
MUTANTS_PER_PASS = 8

UNIT_GRID = 64
SWEEP_GRID = 32
JOIN_COUNTS = (4, 5, 6, 7, 8)
DEEP_PARENS = 500
DEEP_NEGATIONS = 2000

# A traceback from unbounded parser recursion: ROADMAP item 4 at this commit.
RECURSION_FAILURE = {"exit": 1, "stderr_contains": "RecursionError"}

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Op:
    """One cold ``reslat`` process.  File arguments are relative to the work dir."""

    argv: list[str]
    expect: dict
    known_failure: dict | None = None


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    files: dict[str, str] = field(default_factory=dict)
    setup: dict = field(default_factory=dict)


# -- algebra documents ---------------------------------------------------------

def product(a: dict, b: dict) -> dict:
    """Direct product of two BL documents, with componentwise order and tables."""
    pairs = list(itertools.product(range(len(a["carrier"])), range(len(b["carrier"]))))
    label = lambda i, j: f"{a['carrier'][i]}|{b['carrier'][j]}"
    index = {x: i for i, x in enumerate(a["carrier"])}, {y: j for j, y in enumerate(b["carrier"])}
    below = [
        {(index[0][x], index[0][y]) for x, y in a["leq"]},
        {(index[1][x], index[1][y]) for x, y in b["leq"]},
    ]
    le = lambda s, t: all(s[k] == t[k] or (s[k], t[k]) in below[k] for k in (0, 1))

    def table(name):
        return [
            [f"{a[name][i1][i2]}|{b[name][j1][j2]}" for i2, j2 in pairs]
            for i1, j1 in pairs
        ]

    return {
        "signature": "BL",
        "carrier": [label(i, j) for i, j in pairs],
        "bottom": f"{a['bottom']}|{b['bottom']}",
        "top": f"{a['top']}|{b['top']}",
        "leq": [[label(*s), label(*t)] for s in pairs for t in pairs if s != t and le(s, t)],
        "star": table("star"),
        "arrow": table("arrow"),
    }


def dual(doc: dict) -> dict:
    """Order dual: reverse the order, swap the bounds, keep both tables."""
    return {
        "signature": "DBL" if doc["signature"] == "BL" else "BL",
        "carrier": list(doc["carrier"]),
        "bottom": doc["top"],
        "top": doc["bottom"],
        "leq": [[y, x] for x, y in doc["leq"]],
        "star": [list(row) for row in doc["star"]],
        "arrow": [list(row) for row in doc["arrow"]],
    }


def permuted(doc: dict, rng: random.Random) -> dict:
    """The same algebra with its carrier listed in a random order."""
    n = len(doc["carrier"])
    order = rng.sample(range(n), n)
    return {
        **doc,
        "carrier": [doc["carrier"][i] for i in order],
        "star": [[doc["star"][i][j] for j in order] for i in order],
        "arrow": [[doc["arrow"][i][j] for j in order] for i in order],
    }


def valid_algebras() -> dict[str, dict]:
    """The valid BL-algebras and DBL-algebras checked on finite-tables."""
    base = {
        "L12": lukasiewicz_chain(12),
        "G12": goedel_chain(12),
        "L9": lukasiewicz_chain(9),
        "G9": goedel_chain(9),
        "B3": boolean_algebra(3),
        "L3xG3": product(lukasiewicz_chain(3), goedel_chain(3)),
        "G4xL2": product(goedel_chain(4), lukasiewicz_chain(2)),
    }
    docs = dict(base)
    for name in ("L12", "L9", "G9", "B3", "L3xG3", "G4xL2"):
        docs[f"{name}-dual"] = dual(base[name])
    return docs


def mutant_pool() -> dict[str, dict]:
    """Single off-diagonal ``star`` entries changed; commutativity then fails."""
    bases = {
        "L6": lukasiewicz_chain(6),
        "G6": goedel_chain(6),
        "L9": lukasiewicz_chain(9),
        "G9": goedel_chain(9),
        "B3": boolean_algebra(3),
        "L3xG3": product(lukasiewicz_chain(3), goedel_chain(3)),
        "G4xL2": product(goedel_chain(4), lukasiewicz_chain(2)),
    }
    rng = random.Random(POOL_SEED)
    pool = {}
    for base_name, doc in bases.items():
        n = len(doc["carrier"])
        while sum(k.startswith(f"mutant-{base_name}-") for k in pool) < MUTANTS_PER_BASE:
            i, j = rng.sample(range(n), 2)
            value = rng.choice([v for v in range(n) if doc["carrier"][v] != doc["star"][i][j]])
            mutant = json.loads(json.dumps(doc))
            mutant["star"][i][j] = doc["carrier"][value]
            pool[f"mutant-{base_name}-{i}-{j}-{value}"] = mutant
    return pool


def text_of(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def discrete_listing(carrier: list[str]) -> str:
    """``algebra topology`` output for a discrete topology: every subset,
    smallest first, then by carrier position."""
    n = len(carrier)
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1]))
    lines = ["{" + ", ".join(carrier[i] for i in range(n) if m >> i & 1) + "}" for m in masks]
    return "\n".join(lines) + f"\n{len(masks)} open sets\n"


# -- workloads -----------------------------------------------------------------

def laws_op(argv: list[str], key: str, exit_code: int = 0) -> Op:
    return Op(argv + ["--format", "json"], {"kind": "laws", "key": key, "exit": exit_code})


def unit_grid_ops() -> list[Op]:
    ops = [laws_op(["norms", "--all", "--grid", str(UNIT_GRID)], f"norms-all-{UNIT_GRID}")]
    for family in ("lukasiewicz", "goedel", "product"):
        ops.append(laws_op(["metric", "--family", family, "--laws", "d1..d15"], f"metric-{family}-d1..d15"))
    return ops


def _unit_grid(seed: int, rng: random.Random) -> Workload:
    ops = unit_grid_ops()
    rng.shuffle(ops)
    grids = [UNIT_GRID, 32, 16, 8]  # norms --grid; metric --grid, --grid4 and --laws-grid defaults
    return Workload("unit-grid", seed, ops, setup={"grids": grids})


def _finite_tables(seed: int, rng: random.Random) -> Workload:
    files, ops = {}, []
    docs = {name: permuted(doc, rng) for name, doc in valid_algebras().items()}
    for name, doc in docs.items():
        files[f"{name}.alg"] = text_of(doc)
        ops.append(laws_op(["algebra", "check", f"{name}.alg"], f"check-{name}"))
    pool = mutant_pool()
    for key in rng.sample(sorted(pool), MUTANTS_PER_PASS):
        files[f"{key}.alg"] = text_of(pool[key])
        ops.append(laws_op(["algebra", "check", f"{key}.alg"], f"check-{key}", exit_code=1))
    listing = discrete_listing(docs["L12"]["carrier"])
    ops.append(
        Op(
            ["algebra", "topology", "L12.alg"],
            {"kind": "text", "exit": 0, "sha256": hashlib.sha256(listing.encode()).hexdigest()},
        )
    )
    for name in ("L9", "B3", "L3xG3"):
        ops.append(Op(["algebra", "dualize", f"{name}.alg"], {"kind": "algebra", "exit": 0, "doc": dual(docs[name])}))
    rng.shuffle(ops)
    return Workload("finite-tables", seed, ops, files, setup={"algebras": sorted(files)})


def _atom_names(rng: random.Random, count: int) -> list[str]:
    names: list[str] = []
    while len(names) < count:
        name = rng.choice(_LETTERS) + "".join(rng.choices(_LETTERS + "0123456789", k=2))
        if name not in names:
            names.append(name)
    return names


def _formula_eval(seed: int, rng: random.Random) -> Workload:
    files, ops, formulas, valuations = {}, [], [], []

    def evaluation(formula: str, backend: list[str], tail: list[str], expect: dict, known=None):
        formulas.append(formula)
        ops.append(Op(["eval", formula, *backend, *tail], expect, known))

    for family in ("product", "lukasiewicz"):
        for joins in JOIN_COUNTS:
            names = _atom_names(rng, joins + 1)
            values = [Fraction(rng.randint(0, d), d) for d in (rng.randint(2, 97) for _ in names)]
            assign = ",".join(f"{n}={v}" for n, v in zip(names, values))
            valuations.append(assign)
            evaluation(
                " | ".join(names),
                ["--t-algebra", family],
                ["--assign", assign, "--format", "json"],
                {"kind": "json", "exit": 0, "value": {"value": str(max(values))}},
            )

    def tautology_sweep(template: str, backend: list[str], top: str, size: int, tail: list[str]):
        p, q = _atom_names(rng, 2)
        expect = {"atoms": [p, q], "valuations": size * size, "values": [top], "constant": top}
        evaluation(template.format(p=p, q=q), backend, ["--sweep", *tail, "--format", "json"],
                   {"kind": "json", "exit": 0, "value": expect})

    prelinearity = "({p} -> {q}) | ({q} -> {p})"
    for family in ("product", "lukasiewicz"):
        tautology_sweep(prelinearity, ["--t-algebra", family], "1", SWEEP_GRID + 1, [str(SWEEP_GRID)])
    chains = {"L12": lukasiewicz_chain(12), "G12": goedel_chain(12)}
    for (name, doc), template in zip(chains.items(), (prelinearity, "({p} & ({p} -> {q})) -> {q}")):
        doc = permuted(doc, rng)
        files[f"{name}.alg"] = text_of(doc)
        tautology_sweep(template, ["--algebra", f"{name}.alg"], doc["top"], len(doc["carrier"]), [])

    for deep in ("(" * DEEP_PARENS + "{p}" + ")" * DEEP_PARENS, "!" * DEEP_NEGATIONS + "{p}"):
        (p,) = _atom_names(rng, 1)
        evaluation(deep.format(p=p), ["--t-algebra", "product"], ["--assign", f"{p}=1/2"],
                   {"kind": "error", "exit": 2}, RECURSION_FAILURE)
        valuations.append(f"{p}=1/2")
    rng.shuffle(ops)
    setup = {"algebras": sorted(files), "formulas": formulas, "valuations": valuations, "grids": [SWEEP_GRID]}
    return Workload("formula-eval", seed, ops, files, setup)


def build(name: str, seed: int) -> Workload:
    builders = {"unit-grid": _unit_grid, "finite-tables": _finite_tables, "formula-eval": _formula_eval}
    return builders[name](seed, random.Random(f"{name}:{seed}"))


def recorded_ops() -> dict[str, tuple[Op, dict[str, str]]]:
    """Every op whose expectation lives in expected.json, with its input files
    (carriers in builder order; a valid algebra's expectation does not depend
    on the order, because no law has a witness)."""
    out = {op.expect["key"]: (op, {}) for op in unit_grid_ops()}
    for name, doc in valid_algebras().items():
        out[f"check-{name}"] = (laws_op(["algebra", "check", f"{name}.alg"], f"check-{name}"), {f"{name}.alg": text_of(doc)})
    for key, doc in mutant_pool().items():
        out[f"check-{key}"] = (laws_op(["algebra", "check", f"{key}.alg"], f"check-{key}", 1), {f"{key}.alg": text_of(doc)})
    return out
