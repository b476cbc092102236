"""The benchmark's tracer sees the same spans whichever module a function lives in.

``perfbench/tracer.py`` wraps the functions it lists wherever a reslat module
holds them, so a per-layer metric survives a function moving between modules
only if each command still makes the same spans, in the same order, under
the same parents.  For one command of each kind this runs the tracer, as
the benchmark runs it, and compares its spans with the spans it made before
the evaluator and the integer kernels (reslat.kernels: the norm families and
the value table) were split from the checkers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# argv -> the spans as (name, parent index, counts), in the order they start
SPANS = [
    (
        ["norms", "--family", "goedel", "--grid", "4"],
        [
            ("cli.main", -1, {}),
            ("norms.axioms", 0, {"checked": 230}),
            ("norms.axioms", 0, {"checked": 230}),
            ("norms.duality", 0, {"checked": 25}),
            ("norms.adjointness", 0, {"checked": 125}),
            ("norms.oracle", 0, {"checked": 25}),
            ("norms.ordering", 0, {"checked": 75}),
            ("norms.ordering", 0, {"checked": 75}),
        ],
    ),
    (
        ["metric", "--family", "goedel", "--grid", "4", "--grid4", "2", "--laws", "d1,d15", "--laws-grid", "2"],
        [
            ("cli.main", -1, {}),
            ("metric.closed_form", 0, {"checked": 25}),
            ("metric.axioms", 0, {"checked": 300}),
            ("metric.dbl_axioms", 0, {"checked": 355}),
            ("laws.catalogue", 3, {"checked": 355}),
            ("metric.continuity", 0, {"checked": 405}),
            ("laws.catalogue", 0, {"checked": 108}),
        ],
    ),
    (
        ["algebra", "check", "l4.alg"],
        [
            ("cli.main", -1, {}),
            ("finite.load", 0, {}),
            ("finite.axioms", 0, {"checked": 196}),
            ("laws.catalogue", 2, {"checked": 196}),
            ("finite.derived", 0, {"checked": 840}),
            ("laws.catalogue", 4, {"checked": 840}),
            ("topology.radius", 0, {"checked": 29}),
            ("topology.continuity", 0, {"checked": 32}),
        ],
    ),
    (
        ["algebra", "topology", "l4.alg"],
        [("cli.main", -1, {}), ("finite.load", 0, {}), ("topology.enumerate", 0, {"opens": 16, "subsets": 16})],
    ),
    (["algebra", "dualize", "l4.alg"], [("cli.main", -1, {}), ("finite.load", 0, {}), ("finite.dualize", 0, {})]),
    (
        ["eval", "(p -> q) | (q -> p)", "--t-algebra", "product", "--assign", "p=1/2,q=1/3"],
        [("cli.main", -1, {}), ("formulas.parse", 0, {}), ("formulas.evaluate", 0, {})],
    ),
    (
        ["eval", "(p -> q) | (q -> p)", "--t-algebra", "goedel", "--sweep", "4"],
        [("cli.main", -1, {}), ("formulas.parse", 0, {}), ("formulas.sweep", 0, {})],
    ),
    (
        ["eval", "p -> q", "--algebra", "l4.alg", "--sweep"],
        [("cli.main", -1, {}), ("formulas.parse", 0, {}), ("finite.load", 0, {}), ("formulas.sweep", 0, {})],
    ),
]


IDS = ["norms", "metric", "algebra-check", "algebra-topology", "algebra-dualize", "eval-assign", "eval-sweep", "eval-carrier"]


@pytest.mark.parametrize("argv, spans", SPANS, ids=IDS)
def test_each_command_makes_the_same_spans(tmp_path, fixtures_dir, argv, spans):
    (tmp_path / "l4.alg").write_text((fixtures_dir / "l4.alg").read_text(encoding="utf-8"), encoding="utf-8")
    out = tmp_path / "spans.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("RESLAT_GRID", None)
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(out), "op", "--", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert [(name, parent, counts) for name, _, _, parent, _, counts in doc["spans"]] == spans
    assert all(op == "op" and start <= end for _, start, end, _, op, _ in doc["spans"])
