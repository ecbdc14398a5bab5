"""Structured pass/fail reports emitted by the checkers and harnesses."""

from __future__ import annotations

from collections import namedtuple

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


class Check(namedtuple("Check", "name status witness", defaults=(None,))):
    """One named condition with its outcome and, on failure, a concrete witness."""

    __slots__ = ()


class VerificationReport:
    """A labelled bundle of checks plus the parameters they ran against.

    The overall status is derived, never stored: any failing check makes the
    report fail, otherwise any indeterminate check makes it indeterminate.
    Each report starts with its own empty check list and its own copy of
    `counts`.
    """

    def __init__(self, subject: str, counts: dict | None = None):
        self.subject = subject
        self.checks: list[Check] = []
        self.counts = dict(counts or {})
        self.elapsed_ms = 0.0

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
        import json  # only the commands that print a report pay for it

        return json.dumps(self.to_dict(), indent=2)
