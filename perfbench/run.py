"""Cold-process benchmark for reslat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        every workload, one summary each

NAME is unit-grid, finite-tables or formula-eval; BENCHMARK.json says why
each exists.  A run generates the workload's inputs from the seed into
``.bench_work/`` at the repository root, times SETUP_REPEATS set-up probes,
then runs passes over the workload's ops until S seconds have passed (at
least one pass).  A pass is a closed loop with one client: one cold
``python -m reslat`` process at a time.  Every op's outcome goes through the
gate (gate.py).

With ``--trace 0`` the end-to-end metrics are medians over the passes.  With
``--trace 1`` the first pass is untraced, the others run each op under
tracer.py, and the per-layer metrics are medians over the traced passes.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without the reslat sources under ``src/`` the
run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 9
OP_TIMEOUT_S = 60
# Every run ends within 180 s: no op may outlive this deadline after the start.
RUN_DEADLINE_S = 165

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "passed_share": "share",
}

PER_LAYER = {
    "norms.axioms_self_s": "s",
    "norms.axioms_checked_per_s": "1/s",
    "norms.adjointness_self_s": "s",
    "norms.adjointness_checked_per_s": "1/s",
    "norms.duality_self_s": "s",
    "norms.ordering_self_s": "s",
    "norms.oracle_self_s": "s",
    "metric.axioms_self_s": "s",
    "metric.axioms_checked_per_s": "1/s",
    "metric.continuity_self_s": "s",
    "metric.continuity_checked_per_s": "1/s",
    "metric.dbl_axioms_self_s": "s",
    "metric.closed_form_self_s": "s",
    "laws.catalogue_self_s": "s",
    "laws.checked_per_s": "1/s",
    "finite.load_self_s": "s",
    "finite.axioms_self_s": "s",
    "finite.derived_self_s": "s",
    "finite.dualize_self_s": "s",
    "topology.enumerate_self_s": "s",
    "topology.enumerate_calls": "count",
    "topology.continuity_self_s": "s",
    "topology.preimages_checked": "count",
    "topology.radius_self_s": "s",
    "topology.open_share": "share",
    "formulas.parse_self_s": "s",
    "formulas.evaluate_self_s": "s",
    "formulas.evaluate_calls": "count",
    "formulas.sweep_self_s": "s",
    "formulas.shared_subterm_share": "share",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "process.import_s": "s",
    "trace.overhead_share": "share",
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("RESLAT_GRID", None)  # the ops rely on the documented default grids
    return env


@dataclass
class ProcessRun:
    outcome: gate.Outcome
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_process(argv: list, cwd: Path, timeout: float) -> ProcessRun:
    """One child process; wall time, CPU time and max RSS come from wait4."""
    with open(cwd / "stdout.out", "w+b") as out, open(cwd / "stderr.out", "w+b") as err:
        killed = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        outcome = gate.Outcome(None if killed.is_set() else proc.returncode, out.read(), err.read())
    return ProcessRun(outcome, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


@dataclass
class Pass:
    traced: bool
    wall_s: float
    runs: list
    verdicts: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.runs)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.runs)


def run_pass(workload, work: Path, records: dict, deadline: float, traced: bool, number: int) -> Pass:
    runs = []
    start = time.perf_counter()
    for k, op in enumerate(workload.ops):
        if traced:
            spans = work / f"spans-{number}-{k}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), f"{workload.name}/{k}", "--", *op.argv]
        else:
            argv = [sys.executable, "-m", "reslat", *op.argv]
        runs.append(run_process(argv, work, max(1.0, min(OP_TIMEOUT_S, deadline - time.perf_counter()))))
    result = Pass(traced, time.perf_counter() - start, runs)
    result.verdicts = [gate.judge(op, run.outcome, records) for op, run in zip(workload.ops, runs)]
    if traced:
        docs = []
        for k in range(len(workload.ops)):
            path = work / f"spans-{number}-{k}.json"
            if path.exists():  # absent when the op was killed at its timeout
                docs.append(json.loads(path.read_text(encoding="utf-8")))
        result.layers = layer_metrics(docs)
    return result


def layer_metrics(docs: list) -> dict:
    """Per-layer metrics of one traced pass; a span's self time is its
    duration minus the durations of its child spans."""
    self_s, busy, calls, counts = defaultdict(float), defaultdict(float), Counter(), defaultdict(Counter)
    for doc in docs:
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, _, count), children in zip(spans, covered):
            self_s[name] += end - start - children
            busy[name] += end - start
            calls[name] += 1
            counts[name].update(count)

    def rate(name):
        return counts[name]["checked"] / busy[name] if busy[name] else 0.0

    enumerated = counts["topology.enumerate"]
    return {
        "norms.axioms_self_s": self_s["norms.axioms"],
        "norms.axioms_checked_per_s": rate("norms.axioms"),
        "norms.adjointness_self_s": self_s["norms.adjointness"],
        "norms.adjointness_checked_per_s": rate("norms.adjointness"),
        "norms.duality_self_s": self_s["norms.duality"],
        "norms.ordering_self_s": self_s["norms.ordering"],
        "norms.oracle_self_s": self_s["norms.oracle"],
        "metric.axioms_self_s": self_s["metric.axioms"],
        "metric.axioms_checked_per_s": rate("metric.axioms"),
        "metric.continuity_self_s": self_s["metric.continuity"],
        "metric.continuity_checked_per_s": rate("metric.continuity"),
        "metric.dbl_axioms_self_s": self_s["metric.dbl_axioms"],
        "metric.closed_form_self_s": self_s["metric.closed_form"],
        "laws.catalogue_self_s": self_s["laws.catalogue"],
        "laws.checked_per_s": rate("laws.catalogue"),
        "finite.load_self_s": self_s["finite.load"],
        "finite.axioms_self_s": self_s["finite.axioms"],
        "finite.derived_self_s": self_s["finite.derived"],
        "finite.dualize_self_s": self_s["finite.dualize"],
        "topology.enumerate_self_s": self_s["topology.enumerate"],
        "topology.enumerate_calls": calls["topology.enumerate"],
        "topology.continuity_self_s": self_s["topology.continuity"],
        "topology.preimages_checked": counts["topology.continuity"]["checked"],
        "topology.radius_self_s": self_s["topology.radius"],
        "topology.open_share": enumerated["opens"] / enumerated["subsets"] if enumerated["subsets"] else 0.0,
        "formulas.parse_self_s": self_s["formulas.parse"],
        "formulas.evaluate_self_s": self_s["formulas.evaluate"],
        "formulas.evaluate_calls": calls["formulas.evaluate"],
        "formulas.sweep_self_s": self_s["formulas.sweep"],
        "cli.self_s": self_s["cli.main"],
        "cli.stdout_bytes": sum(doc["stdout_bytes"] for doc in docs),
        "process.import_s": statistics.median(doc["import_s"] for doc in docs) if docs else 0.0,
    }


def subterm_share(formulas: list, work: Path) -> float:
    if not formulas:
        return 0.0
    path = work / "formulas.json"
    path.write_text(json.dumps(formulas), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), "--share", str(path)],
        cwd=work, env=child_env(), capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True,
    )
    counts = json.loads(proc.stdout)
    return 1 - counts["distinct"] / counts["total"] if counts["total"] else 0.0


def measure_setup(work: Path) -> list:
    """Wall seconds of SETUP_REPEATS fresh set-up probe processes."""
    walls = []
    for _ in range(SETUP_REPEATS):
        run = run_process([sys.executable, str(HERE / "setup_probe.py"), "setup.json", str(SRC)], work, OP_TIMEOUT_S)
        if run.outcome.exit != 0:
            raise RuntimeError("set-up probe failed: " + run.outcome.stderr.decode(errors="replace").strip())
        walls.append(run.wall_s)
    return walls


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import generate  # imports reslat, so only once main() has checked SRC

    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    workload = generate.build(name, seed)
    records = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for file_name, text in workload.files.items():
            (work / file_name).write_text(text, encoding="utf-8")
        (work / "setup.json").write_text(json.dumps(workload.setup), encoding="utf-8")
        setup_walls = measure_setup(work)
        passes = []
        measure_start = time.perf_counter()

        def another_pass() -> bool:
            if not passes or (traced and len(passes) < 2):
                return True
            now = time.perf_counter()
            return now - measure_start < seconds and now + passes[-1].wall_s < deadline

        while another_pass():
            passes.append(run_pass(workload, work, records, deadline, traced and len(passes) > 0, len(passes)))
        share = subterm_share(workload.setup.get("formulas", []), work) if traced else 0.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = summarize(workload, passes, setup_walls, share, traced)
    print_report(workload, passes, setup_walls, result, time.perf_counter() - started)
    return result


def summarize(workload, passes: list, setup_walls: list, share: float, traced: bool) -> dict:
    verdicts = [v for p in passes for v in p.verdicts]
    passed = sum(status == gate.PASS for status, _ in verdicts)
    plain = [p for p in passes if not p.traced]
    if traced:
        traced_passes = [p for p in passes if p.traced]
        values = {key: statistics.median(p.layers[key] for p in traced_passes) for key in traced_passes[0].layers}
        values["formulas.shared_subterm_share"] = share
        overhead = statistics.median(p.wall_s for p in traced_passes) / statistics.median(p.wall_s for p in plain)
        values["trace.overhead_share"] = overhead - 1
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "cpu_s": statistics.median(p.cpu_s for p in plain),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
            "setup_s": statistics.median(setup_walls),
            "passed_share": passed / len(verdicts),
        }
        units = END_TO_END
    return {
        "correct": all(status != gate.FAIL for status, _ in verdicts),
        "attempted": len(verdicts),
        "failed": len(verdicts) - passed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def print_report(workload, passes: list, setup_walls: list, result: dict, elapsed: float) -> None:
    plain = [p for p in passes if not p.traced]
    verdicts = [v for p in passes for v in p.verdicts]
    known = sum(status == gate.KNOWN for status, _ in verdicts)
    print(
        f"== {workload.name} seed {workload.seed}: {len(workload.ops)} ops per pass, "
        f"{len(plain)} untraced and {len(passes) - len(plain)} traced passes, "
        f"{len(setup_walls)} set-up probes, {elapsed:.1f} s in all"
    )
    print(f"   pass wall s: {' '.join(f'{p.wall_s:.3f}' for p in plain)}")
    for key, metric in result["metrics"].items():
        print(f"   {key:34s} {metric['value']:.6g} {metric['unit']}")
    print(
        f"   {'failed_share':34s} {result['failed'] / result['attempted']:.6g} share "
        f"({result['failed']} of {result['attempted']} op runs, {known} of them known failures)"
    )
    for k, op in enumerate(workload.ops):
        walls = [p.runs[k].wall_s for p in plain]
        text = " ".join(op.argv)
        text = text if len(text) <= 72 else text[:69] + "..."
        problems = {(p.verdicts[k][0], p.verdicts[k][1]) for p in passes if p.verdicts[k][0] != gate.PASS}
        status = "; ".join(f"{s}: {r[:160]}" for s, r in sorted(problems)) or "pass"
        print(f"   op {k:2d} {statistics.median(walls):8.3f} s  {status:.200s}  {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="unit-grid, finite-tables, formula-eval or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reslat" / "__init__.py").is_file():
        print(f"error: no reslat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import generate

    if args.workload not in (*generate.WORKLOADS, "all"):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    names = generate.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
