"""Outcome gate: does one ``reslat`` process's result match its op's expectation?

Law reports are compared on ``ok`` and, for every law in order, on its id,
``status``, ``failures`` and first witness ``args``.  ``checked`` is not
compared, so a change that decides a law with a smaller sweep still passes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

PASS, KNOWN, FAIL = "pass", "known-failure", "fail"


@dataclass
class Outcome:
    exit: int | None  # None when the process was killed at its timeout
    stdout: bytes
    stderr: bytes


def law_summary(doc: dict) -> dict:
    laws = [
        [r["law"], r["status"], r["failures"], r["witnesses"][0]["args"] if r["witnesses"] else None]
        for section in doc["sections"]
        for r in section["reports"]
    ]
    return {"ok": doc["ok"], "laws": laws}


def _algebra_key(doc: dict) -> tuple:
    return (
        doc["signature"], doc["carrier"], doc["bottom"], doc["top"], doc["star"], doc["arrow"],
        sorted(map(tuple, doc["leq"])),
    )


def mismatch(expect: dict, outcome: Outcome, records: dict) -> str | None:
    """Why the outcome differs from ``expect``, or None when it matches."""
    if outcome.exit is None:
        return "timed out"
    stderr = outcome.stderr.decode(errors="replace")
    if "Traceback (most recent call last)" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if outcome.exit != expect["exit"]:
        return f"exit {outcome.exit}, expected {expect['exit']}"
    kind = expect["kind"]
    if kind == "error":
        lines = stderr.splitlines()
        if outcome.stdout or len(lines) != 1 or not lines[0].startswith("error: "):
            return f"expected one 'error:' line and no output, got {stderr!r}"
        return None
    if kind == "text":
        digest = hashlib.sha256(outcome.stdout).hexdigest()
        return None if digest == expect["sha256"] else f"stdout sha256 {digest}, expected {expect['sha256']}"
    try:
        doc = json.loads(outcome.stdout)
    except ValueError:
        return "stdout is not a JSON document"
    if kind == "json":
        return None if doc == expect["value"] else f"got {doc}, expected {expect['value']}"
    if kind == "algebra":
        return None if _algebra_key(doc) == _algebra_key(expect["doc"]) else "dual document differs"
    if kind == "laws":
        want = records.get(expect["key"])
        if want is None:
            return f"no recorded expectation for {expect['key']}"
        got = law_summary(doc)
        if got["ok"] != want["ok"]:
            return f"ok {got['ok']}, expected {want['ok']}"
        if len(got["laws"]) != len(want["laws"]):
            return f"{len(got['laws'])} law reports, expected {len(want['laws'])}"
        for have, need in zip(got["laws"], want["laws"]):
            if have != need:
                return f"law report {have}, expected {need}"
        return None
    raise ValueError(f"unknown expectation kind {kind!r}")


def judge(op, outcome: Outcome, records: dict) -> tuple[str, str]:
    """(PASS | KNOWN | FAIL, reason).  KNOWN is a mismatch that reproduces the
    op's recorded known failure; it still counts as failed."""
    problem = mismatch(op.expect, outcome, records)
    if problem is None:
        return PASS, ""
    known = op.known_failure
    if (
        known is not None
        and outcome.exit == known["exit"]
        and known["stderr_contains"] in outcome.stderr.decode(errors="replace")
    ):
        return KNOWN, problem
    return FAIL, problem
