"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import copy
import json
import sys

import pytest

import gate
import generate
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = json.loads((run.HERE / "expected.json").read_text(encoding="utf-8"))


def snapshot(workload):
    ops = [(op.argv, op.expect, op.known_failure) for op in workload.ops]
    return json.dumps([ops, workload.files, workload.setup], sort_keys=True).encode()


@pytest.mark.parametrize("name", generate.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    assert snapshot(generate.build(name, 7)) == snapshot(generate.build(name, 7))


@pytest.mark.parametrize("name", generate.WORKLOADS)
def test_other_seed_gives_other_inputs(name):
    assert snapshot(generate.build(name, 7)) != snapshot(generate.build(name, 8))


def test_every_gated_law_report_has_a_record():
    assert set(RECORDS) == set(generate.recorded_ops())
    for name in generate.WORKLOADS:
        for op in generate.build(name, 3).ops:
            if op.expect["kind"] == "laws":
                assert op.expect["key"] in RECORDS


def mutant_op():
    key, (op, files) = next((k, v) for k, v in sorted(generate.recorded_ops().items()) if "mutant" in k)
    return key, op, files


def test_gate_passes_a_real_outcome_and_catches_a_wrong_expectation(tmp_path):
    key, op, files = mutant_op()
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    outcome = run.run_process([sys.executable, "-m", "reslat", *op.argv], tmp_path, 60).outcome
    assert gate.judge(op, outcome, RECORDS) == (gate.PASS, "")

    wrong = copy.deepcopy(RECORDS)
    failing = next(law for law in wrong[key]["laws"] if law[1] == "fail")
    failing[3] = ["not", "the", "witness"]
    status, reason = gate.judge(op, outcome, wrong)
    assert status == gate.FAIL and "law report" in reason

    wrong_exit = copy.deepcopy(op)
    wrong_exit.expect["exit"] = 0
    assert gate.judge(wrong_exit, outcome, RECORDS)[0] == gate.FAIL


def test_checked_counts_are_not_gated():
    key, op, _ = mutant_op()
    record = RECORDS[key]
    reports = [
        {"law": law, "status": status, "checked": 10**6, "failures": failures,
         "witnesses": [] if args is None else [{"args": args}]}
        for law, status, failures, args in record["laws"]
    ]
    stdout = json.dumps({"ok": record["ok"], "sections": [{"title": "t", "reports": reports}]}).encode()
    assert gate.judge(op, gate.Outcome(1, stdout, b""), RECORDS)[0] == gate.PASS


def test_known_failure_is_failed_but_not_incorrect():
    deep = next(op for op in generate.build("formula-eval", 1).ops if op.known_failure)
    traceback = b"Traceback (most recent call last):\nRecursionError: maximum recursion depth exceeded\n"
    assert gate.judge(deep, gate.Outcome(1, b"", traceback), RECORDS)[0] == gate.KNOWN
    assert gate.judge(deep, gate.Outcome(2, b"", b"error: nesting too deep\n"), RECORDS)[0] == gate.PASS
    assert gate.judge(deep, gate.Outcome(None, b"", b""), RECORDS)[0] == gate.FAIL


def test_benchmark_json_names_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(generate.WORKLOADS)


def fake_pass(traced):
    runs = [run.ProcessRun(gate.Outcome(0, b"", b""), 0.5, 0.4, 20.0)]
    layers = run.layer_metrics([{"import_s": 0.05, "stdout_bytes": 9, "spans": []}]) if traced else {}
    return run.Pass(traced, 0.5, runs, [(gate.PASS, "")], layers)


@pytest.mark.parametrize("traced, names", [(False, run.END_TO_END), (True, run.PER_LAYER)])
def test_every_named_metric_is_emitted_with_a_unit(traced, names):
    workload = generate.build("unit-grid", 1)
    result = run.summarize(workload, [fake_pass(False), fake_pass(traced)], [0.1, 0.2], 0.5, traced)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1, "w/0", {}],
        ["finite.axioms", 1.0, 4.0, 0, "w/0", {"checked": 30}],
        ["laws.catalogue", 5.0, 7.0, 0, "w/0", {"checked": 8}],
        ["topology.enumerate", 7.0, 8.0, 0, "w/0", {"opens": 4, "subsets": 512}],
    ]
    layers = run.layer_metrics([{"import_s": 0.1, "stdout_bytes": 5, "spans": spans}])
    assert layers["cli.self_s"] == pytest.approx(4.0)
    assert layers["laws.checked_per_s"] == pytest.approx(4.0)
    assert layers["topology.open_share"] == pytest.approx(4 / 512)
    assert layers["topology.enumerate_calls"] == 1
