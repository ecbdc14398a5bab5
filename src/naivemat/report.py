"""Structured pass/fail reports emitted by the checkers and harnesses."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


@dataclass
class Check:
    """One named condition with its outcome and, on failure, a concrete witness."""

    name: str
    status: str
    witness: object = None


@dataclass
class VerificationReport:
    """A labelled bundle of checks plus the parameters they ran against.

    The overall status is derived, never stored: any failing check makes the
    report fail, otherwise any indeterminate check makes it indeterminate.
    """

    subject: str
    checks: list[Check] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    @property
    def status(self) -> str:
        if any(c.status == FAIL for c in self.checks):
            return FAIL
        if any(c.status == INDETERMINATE for c in self.checks):
            return INDETERMINATE
        return PASS

    def add(self, name: str, ok: bool, witness: object = None) -> None:
        self.checks.append(Check(name, PASS if ok else FAIL, None if ok else witness))

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "status": self.status,
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
            "counts": dict(self.counts),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)
