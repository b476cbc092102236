"""Structured pass/fail reports for law and axiom sweeps.

A violation records the law id, the offending tuple, and both sides of the
failed comparison, so every witness can be re-evaluated independently.
Witness collection is capped but failures keep counting, and sweeps iterate
in lexicographic order, so the first witness is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_WITNESSES = 20


@dataclass(frozen=True)
class Violation:
    law_id: str
    args: tuple
    lhs: object
    rhs: object
    note: str = ""

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


@dataclass
class LawReport:
    law_id: str
    checked: int = 0
    failures: int = 0
    witnesses: list[Violation] = field(default_factory=list)

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
