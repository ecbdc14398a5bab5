"""Workloads of naivemat CLI cases, their known answers, and outcome classes.

Every known answer here comes from a closed form or from this file's own
enumeration; none is built with naivemat, so a regression in the package
cannot move its own reference.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

# Exit codes of the naivemat CLI.
EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INDETERMINATE = 0, 1, 2, 3

# Outcomes of one case run; "refused" and "indeterminate" are undecided.
DECIDED = "decided"
ERRORS = ("timeout", "crash", "bad-exit", "wrong")


@dataclass(frozen=True)
class Case:
    """One CLI call: the command (a `verify` harness, `generate` or
    `export-pg`), its flags in argv order, and extra environment."""

    command: str
    flags: tuple[tuple[str, object], ...]
    env: tuple[tuple[str, str], ...] = ()

    @property
    def p(self) -> dict:
        return dict(self.flags)

    @property
    def argv(self) -> list[str]:
        out = [self.command] if self.command in ("generate", "export-pg") else ["verify", self.command]
        for name, value in self.flags:
            out += [f"--{name}"] if value is True else [f"--{name}", str(value)]
        return out

    @property
    def name(self) -> str:
        return " ".join([f"{k}={v}" for k, v in self.env] + self.argv)


def case(command: str, env: dict | None = None, **flags) -> Case:
    return Case(command, tuple(flags.items()), tuple((env or {}).items()))


# Each workload lists its smallest case first; the self-test runs that one.
WORKLOADS = {
    "q2-proof": [
        case("periodicity", n=8, blocks=3),
        case("theorem", n=9),
        case("invariants", n=8),
    ],
    "fermat-design": [
        case("export-pg", n=3, q=4),
        case("export-pg", n=2, q=16),
        case("general", a=2, n=2),
        case("general", a=1, n=3, iso=True),
        # Budget-bound: indeterminate today, decided once the search is exact.
        case("general", env={"BUDGET_NODES": "1000000"}, a=2, n=2, iso=True),
    ],
    "nim-field": [
        case("field", q=256),
        case("lemma", bound=512),
        case("field", q=65536, mode="sampled", samples=100000),
    ],
    "stream-generate": [
        case("generate", k=3, r=3, rows=3500, format="matrix-pbm"),
        case("generate", k=3, r=7, rows=70000),
        case("generate", k=3, r=1, rows=30000),
    ],
}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def pg_counts(n: int, q: int) -> tuple[int, int, int, int]:
    """(v, b, r, k) of PG(n, q): points, lines, lines per point, points per line."""
    v = (q ** (n + 1) - 1) // (q - 1)
    r = (q ** n - 1) // (q - 1)
    return v, v * r // (q + 1), r, q + 1


def expected_counts(c: Case) -> dict:
    """Report counts each verify harness must state, from closed forms."""
    p = c.p
    if c.command in ("theorem", "periodicity", "invariants"):
        s, d, r, _ = pg_counts(p["n"], 2)
        if c.command == "theorem":
            return {"n": p["n"], "k": 3, "r": r, "d": d, "s": s}
        if c.command == "periodicity":
            return {"n": p["n"], "d": d, "s": s, "blocks": p["blocks"], "rows": p["blocks"] * d}
        return {"n": p["n"], "d": d, "s": s, "steps": d}
    if c.command == "general":
        q = 2 ** (2 ** p["a"])
        v, b, r, k = pg_counts(p["n"], q)
        return {"q": q, "n": p["n"], "v": v, "b": b, "k": k, "r": r}
    if c.command == "field":
        mode = p.get("mode", "exhaustive")
        triples = p["q"] ** 3 if mode == "exhaustive" else p["samples"]
        return {"q": p["q"], "mode": mode, "triples": triples}
    if c.command == "lemma":
        return {"bound": p["bound"], "triples": p["bound"] ** 3}
    raise ValueError(f"no known counts for {c.name}")


def xor_triples(top: int) -> list[tuple[int, int, int]]:
    """Lex-sorted triples a < b < a^b below top."""
    return [(a, b, a ^ b) for a in range(1, top) for b in range(a + 1, top) if a ^ b > b]


def expected_rows(k: int, r: int, count: int) -> Iterator[tuple[int, ...]]:
    """The first rows of the greedy matrix for k = 3, r = 2^n - 1.

    Row i is the i-th lex-sorted xor triple below 2^(n+1), shifted by s times
    its block; at r = 1 this reads row i = (3i-2, 3i-1, 3i).
    """
    n = r.bit_length()
    if k != 3 or r != (1 << n) - 1:
        raise ValueError(f"no known rows for (k, r) = ({k}, {r})")
    s = (1 << (n + 1)) - 1
    base = xor_triples(s + 1)
    for i in range(count):
        t, j = divmod(i, len(base))
        yield tuple(x + t * s for x in base[j])


# ---------------------------------------------------------------------------
# known-answer checks: each reads the output as lines (a file streams, so the
# benchmark process stays smaller than the cases it measures) and returns
# None when the output is right, else the first mismatch
# ---------------------------------------------------------------------------

def check_report(c: Case, lines: Iterable[str], status: str = "pass") -> str | None:
    try:
        rep = json.loads("".join(lines))
    except ValueError:
        return "stdout is not a JSON report"
    if rep.get("status") != status:
        return f"status {rep.get('status')!r}, expected {status!r}"
    if status == "pass":
        bad = [ch.get("name") for ch in rep.get("checks", []) if ch.get("status") != "pass"]
        if bad or not rep.get("checks"):
            return f"checks not passing: {bad}"
    counts = rep.get("counts", {})
    for key, want in expected_counts(c).items():
        if counts.get(key) != want:
            return f"counts[{key!r}] = {counts.get(key)!r}, expected {want!r}"
    return None


def check_rows_csv(lines: Iterable[str], rows: Iterable[tuple[int, ...]]) -> str | None:
    for i, (line, row) in enumerate(itertools.zip_longest(lines, rows), 1):
        want = None if row is None else ",".join(map(str, row)) + "\n"
        if line != want:
            return f"row {i} is {line!r}, expected {want!r}"
    return None


def check_pbm(lines: Iterable[str], k: int, r: int, count: int) -> str | None:
    width = max(row[-1] for row in expected_rows(k, r, count))
    lines = iter(lines)
    header = [next(lines, None), next(lines, None)]
    if header != ["P1\n", f"{width} {count}\n"]:
        return f"header {header}, expected P1 and '{width} {count}'"
    zeros = bytearray(" ".join("0" * width) + "\n", "ascii")
    for i, (line, row) in enumerate(itertools.zip_longest(lines, expected_rows(k, r, count)), 1):
        if line is None or row is None:
            return f"{'too few' if line is None else 'too many'} bitmap rows at row {i}"
        want = bytearray(zeros)
        for col in row:
            want[2 * (col - 1)] = ord("1")
        if line.encode("ascii") != want:
            return f"bitmap row {i} differs, expected ones at {row}"
    return None


def check_pg_export(lines: Iterable[str], n: int, q: int) -> str | None:
    """Lines must form a 2-(v, q+1, 1) design with PG(n, q)'s counts, sorted."""
    v, b, _, k = pg_counts(n, q)
    try:
        lines = [tuple(map(int, ln.split(","))) for ln in lines]
    except ValueError:
        return "output is not integer CSV"
    if len(lines) != b:
        return f"{len(lines)} lines, expected b = {b}"
    if lines != sorted(set(lines)):
        return "lines are not distinct and lex-sorted"
    seen = set()
    for i, line in enumerate(lines, 1):
        if len(line) != k or list(line) != sorted(set(line)) or line[0] < 1 or line[-1] > v:
            return f"line {i} {line} is not {k} increasing points in [1, {v}]"
        for pair in itertools.combinations(line, 2):
            if pair in seen:
                return f"pair {pair} lies on two lines"
            seen.add(pair)
    if len(seen) != v * (v - 1) // 2:
        return f"{len(seen)} pairs covered, expected {v * (v - 1) // 2}"
    return None


def check_output(c: Case, path: Path, status: str = "pass") -> str | None:
    """Known-answer check of the output file of case c."""
    p = c.p
    with open(path, errors="replace") as lines:
        if c.command == "generate":
            if p.get("format") == "matrix-pbm":
                return check_pbm(lines, p["k"], p["r"], p["rows"])
            return check_rows_csv(lines, expected_rows(p["k"], p["r"], p["rows"]))
        if c.command == "export-pg":
            return check_pg_export(lines, p["n"], p["q"])
        return check_report(c, lines, status)


def classify(c: Case, exit_code: int | None, stderr: str, stdout: Path) -> tuple[str, str]:
    """(outcome, detail) of one case run; exit_code None means it timed out.

    Every claim in the workloads is true, so exit 1 is a wrong verdict or a
    runtime error. Exit 2 (refused) and exit 3 (indeterminate) are undecided,
    never a pass.
    """
    if exit_code is None:
        return "timeout", "killed at the case time limit"
    if "Traceback (most recent call last)" in stderr:
        return "crash", stderr.strip().splitlines()[-1][:200]
    if exit_code == EXIT_USAGE:
        return "refused", stderr.strip()[:200]
    if exit_code == EXIT_INDETERMINATE and c.command not in ("generate", "export-pg"):
        bad = check_output(c, stdout, status="indeterminate")
        return ("wrong", bad) if bad else ("indeterminate", "")
    if exit_code == EXIT_FAIL:
        return "wrong", "exit 1 on a true claim: " + stderr.strip()[:200]
    if exit_code != EXIT_PASS:
        return "bad-exit", f"exit {exit_code}"
    bad = check_output(c, stdout)
    return ("wrong", bad) if bad else (DECIDED, "")
