"""Record expected.json: the law reports each recorded op must reproduce.

Run from the repository root:  python3 perfbench/record.py

Every op in ``generate.recorded_ops()`` runs once as a cold ``python -m
reslat``.  Valid structures must exit 0 with every law passing, and mutants
must exit 1, as the theorems and the broken commutativity imply; the script
refuses to write the file otherwise.  Re-record only when the expected
reports really change, and say why in the change that does it.
"""

import json
import shutil
import sys

import gate
import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import generate

    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    records = {}
    try:
        for key, (op, files) in sorted(generate.recorded_ops().items()):
            for name, text in files.items():
                (work / name).write_text(text, encoding="utf-8")
            outcome = run.run_process([sys.executable, "-m", "reslat", *op.argv], work, run.OP_TIMEOUT_S).outcome
            summary = gate.law_summary(json.loads(outcome.stdout))
            if outcome.exit != op.expect["exit"] or summary["ok"] != (op.expect["exit"] == 0):
                print(f"error: {key} exited {outcome.exit} with ok={summary['ok']}", file=sys.stderr)
                return 1
            records[key] = summary
            print(f"{key}: exit {outcome.exit}, {len(summary['laws'])} law reports")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "expected.json"
    lines = [f"{json.dumps(key)}: {json.dumps(records[key])}" for key in sorted(records)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
