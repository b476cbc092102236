"""Structured pass/fail reports for law and axiom sweeps.

A violation records the law id, the offending tuple, and both sides of the
failed comparison, so every witness can be re-evaluated independently.
Witness collection is capped but failures keep counting, and sweeps iterate
in lexicographic order, so the first witness is deterministic.  ``emit``
prints titled sections of reports as the commands of reslat.cli do.
"""

from __future__ import annotations

MAX_WITNESSES = 20


class Violation:
    __slots__ = ("law_id", "args", "lhs", "rhs", "note")

    def __init__(self, law_id: str, args: tuple, lhs, rhs, note: str = ""):
        self.law_id, self.args, self.lhs, self.rhs, self.note = law_id, args, lhs, rhs, note

    def to_dict(self) -> dict:
        d = {
            "law": self.law_id,
            "args": [str(a) for a in self.args],
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }
        if self.note:
            d["note"] = self.note
        return d

    def format_line(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        line = f"{self.law_id} violated at ({args}): lhs={self.lhs} rhs={self.rhs}"
        if self.note:
            line += f" [{self.note}]"
        return line


class LawReport:
    __slots__ = ("law_id", "checked", "failures", "witnesses")

    def __init__(self, law_id: str, checked: int = 0):
        self.law_id, self.checked, self.failures, self.witnesses = law_id, checked, 0, []

    @property
    def ok(self) -> bool:
        return self.failures == 0

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def register(self, violation: Violation) -> None:
        self.failures += 1
        if len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(violation)

    def register_row(self, lhs, rhs, args, show, holds=None, note: str = "") -> None:
        """Register a violation at each position ``k``, in order, where
        ``holds(lhs[k], rhs[k])`` is false (``==`` when ``holds`` is None):
        its tuple is ``args(k)`` and its sides the two entries through ``show``."""
        for k, (x, y) in enumerate(zip(lhs, rhs)):
            if not (x == y if holds is None else holds(x, y)):
                self.register(Violation(self.law_id, args(k), show(x), show(y), note))

    def to_dict(self) -> dict:
        return {
            "law": self.law_id,
            "status": self.status,
            "checked": self.checked,
            "failures": self.failures,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }

    def lines(self) -> list[str]:
        head = f"{self.law_id}: {self.status} ({self.checked} checked"
        if self.failures:
            head += f", {self.failures} failures"
        head += ")"
        return [head] + ["  " + w.format_line() for w in self.witnesses]


def all_ok(reports) -> bool:
    return all(r.ok for r in reports)


def emit(args, sections, notes=(), extra=None) -> int:
    """Print titled sections of reports, with notes and extra fields, as text
    or (``args.format == "json"``) one JSON document; the exit code is 0 when
    every report passes and 1 otherwise."""
    ok = all(all_ok(section) for _, section in sections)
    args.verdict = 0 if ok else 1  # the exit code, also when stdout is closed (see reslat.cli.main)
    if args.format == "json":
        import json  # only JSON output loads it

        doc = {
            "ok": ok,
            "sections": [
                {"title": title, "reports": [r.to_dict() for r in section]}
                for title, section in sections
            ],
        }
        if notes:
            doc["notes"] = list(notes)
        if extra:
            doc.update(extra)
        print(json.dumps(doc, indent=2))
    else:
        for title, section in sections:
            print(f"== {title}")
            for report in section:
                for line in report.lines():
                    print(line)
        for note in notes:
            print(f"note: {note}")
        if extra:
            for key, value in extra.items():
                print(f"{key}: {value}")
        print("result: " + ("PASS" if ok else "FAIL"))
    return args.verdict
