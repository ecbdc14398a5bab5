"""End-to-end harnesses binding the greedy rows to projective structure.

Each harness returns a VerificationReport whose JSON form (subject, status,
checks[], counts{}, elapsed_ms) is what the CLI emits.  Witnesses always
name the smallest offending row, point, or triple.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import InputRangeError, InvalidParameterError, ResourceLimitError
from .geometry import (DEFAULT_POINT_BOUND, IncidenceStructure, build_pg,
                       check_design, check_veblen_young, expected_counts)
from .greedy import GenParams, NaiveMatrixGenerator, generate
from .nimber import VALUE_BITS, greediness_lemma_holds
from .report import INDETERMINATE, PASS, Check, VerificationReport

DEFAULT_MAX_N = 10
LEMMA_BOUND_CAP = 512


def _guard_n(n: int, max_n: int) -> None:
    if not 1 <= n <= max_n:
        raise InvalidParameterError(f"n must be in [1, {max_n}], got {n}")


def _identity(n: int, q: int) -> str:
    return f"rows equal the lines of PG({n},{q})"


def _add_identity(report: VerificationReport, rows: list[tuple[int, ...]],
                  n: int, q: int) -> bool:
    """Check that the rows are, in order, the lines of PG(n, q) as build_pg
    ranks them; the witness names the first differing line."""
    lines = build_pg(n, q).lines
    bad = next((i for i, (row, line) in enumerate(zip(rows, lines)) if row != line), None)
    report.add(_identity(n, q), bad is None,
               None if bad is None else {"line": bad + 1, "row": list(rows[bad]),
                                         "expected": list(lines[bad])})
    return bad is None


def verify_theorem_q2(n: int, max_n: int = DEFAULT_MAX_N) -> VerificationReport:
    """Generate the first d rows at (k, r) = (3, 2^n - 1) and check they are
    xor-closed triples below 2^(n+1) and, in order, the lines of PG(n, 2):
    at q = 2 build_pg's ranked labelling is the nim-triple model."""
    _guard_n(n, max_n)
    start = time.perf_counter()
    s, _, r, _, d = expected_counts(n, 2)
    rows = [row.points for row in generate(GenParams(k=3, r=r, max_rows=d))]

    report = VerificationReport(subject=f"theorem q=2 n={n}",
                                counts={"n": n, "k": 3, "r": r, "d": d, "s": s})
    bad = next((i for i, (a, b, c) in enumerate(rows)
                if not (a < b < c and c == (a ^ b) and c < s + 1)), None)
    report.add("rows are xor-closed triples below 2^(n+1)", bad is None,
               None if bad is None else {"row": bad + 1, "points": list(rows[bad])})
    _add_identity(report, rows, n, 2)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def verify_zero_blocks_and_periodicity(n: int, blocks: int,
                                       max_n: int = DEFAULT_MAX_N) -> VerificationReport:
    """Check block t uses only columns in (t*s, (t+1)*s] and that row i+d is
    row i shifted by s."""
    _guard_n(n, max_n)
    if blocks < 1:
        raise InvalidParameterError(f"blocks must be at least 1, got {blocks}")
    start = time.perf_counter()
    s, _, r, _, d = expected_counts(n, 2)
    rows = generate(GenParams(k=3, r=r, max_rows=blocks * d))

    report = VerificationReport(
        subject=f"zero blocks and periodicity n={n} blocks={blocks}",
        counts={"n": n, "d": d, "s": s, "blocks": blocks, "rows": len(rows)})

    bad = None
    for row in rows:
        block = (row.index - 1) // d
        lo, hi = block * s, (block + 1) * s
        if not all(lo < p <= hi for p in row.points):
            bad = {"row": row.index, "points": list(row.points),
                   "window": [lo + 1, hi]}
            break
    report.add("each block of d rows stays in its s-column window", bad is None, bad)

    bad = None
    for i in range((blocks - 1) * d):
        want = tuple(p + s for p in rows[i].points)
        if rows[i + d].points != want:
            bad = {"row": i + 1 + d, "points": list(rows[i + d].points),
                   "expected": list(want)}
            break
    report.add("row i+d equals row i shifted by s", bad is None, bad)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def verify_proof_invariants(n: int, max_n: int = DEFAULT_MAX_N) -> VerificationReport:
    """Replay generation and, before each emitted row {a, b, c}, assert the
    membership and connectability claims over the initial window.

    Claims checked at every step m < d with state = the first m rows:
    a, b, c lie in the window; every complete window point is connectable to
    all other window points; every window point x < c outside {a, b} is
    connectable to a or b; every window point x < b other than a is
    connectable to a.
    """
    _guard_n(n, max_n)
    start = time.perf_counter()
    s, _, r, _, d = expected_counts(n, 2)
    window_mask = ((1 << (s + 1)) - 1) & ~1  # bits 1..s
    gen = NaiveMatrixGenerator(GenParams(k=3, r=r, max_rows=d))

    first: dict[str, dict | None] = {"member": None, "claim1": None,
                                     "claim2": None, "claim3": None}
    for m in range(d):
        a, b, c = gen.peek_next_row()
        if first["member"] is None and not 1 <= a < b < c <= s:
            first["member"] = {"step": m, "points": [a, b, c]}
        if first["claim1"] is None:
            for x in range(1, s + 1):
                if gen.column_degree(x) == r:
                    want = window_mask & ~(1 << x)
                    missing = want & ~gen.connectable_mask(x)
                    if missing:
                        first["claim1"] = {"step": m, "complete_point": x,
                                           "not_connectable_to": (missing & -missing).bit_length() - 1}
                        break
        if first["claim2"] is None:
            need = ((1 << c) - 2) & window_mask & ~(1 << a) & ~(1 << b)
            missing = need & ~(gen.connectable_mask(a) | gen.connectable_mask(b))
            if missing:
                first["claim2"] = {"step": m, "next_row": [a, b, c],
                                   "point": (missing & -missing).bit_length() - 1}
        if first["claim3"] is None:
            need = ((1 << b) - 2) & window_mask & ~(1 << a)
            missing = need & ~gen.connectable_mask(a)
            if missing:
                first["claim3"] = {"step": m, "next_row": [a, b, c],
                                   "point": (missing & -missing).bit_length() - 1}
        gen.next_row()

    report = VerificationReport(subject=f"proof invariants n={n}",
                                counts={"n": n, "d": d, "s": s, "steps": d})
    report.add("next-row points stay in the initial window", first["member"] is None, first["member"])
    report.add("complete window points are connectable to all others", first["claim1"] is None, first["claim1"])
    report.add("window points below c are connectable to a or b", first["claim2"] is None, first["claim2"])
    report.add("window points below b are connectable to a", first["claim3"] is None, first["claim3"])
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def verify_general_q(a_exponent: int, n: int) -> VerificationReport:
    """Generate the first b rows at (k, r) = (q+1, (q^n-1)/(q-1)) and check
    that they are, line for line, the lines of PG(n, q) as build_pg ranks
    them.

    The window and design checks are independent evidence on the rows
    alone.  Pasch closure runs only when the identity fails on a design, to
    say whether the rows form a projective space under some other
    labelling (a failed design is none under any labelling).  Above
    build_pg's point bound nothing is generated and the identity is
    reported as indeterminate.
    """
    if a_exponent < 0:
        raise InvalidParameterError(f"a must be nonnegative, got {a_exponent}")
    if n < 1:
        raise InvalidParameterError(f"n must be at least 1, got {n}")
    if (1 << a_exponent) > VALUE_BITS:
        raise InputRangeError(f"q = 2^(2^{a_exponent}) exceeds the {VALUE_BITS}-bit nim value domain")
    q = 1 << (1 << a_exponent)
    v, b, r, k, _ = expected_counts(n, q)
    start = time.perf_counter()
    report = VerificationReport(subject=f"general q={q} n={n}",
                                counts={"q": q, "n": n, "v": v, "b": b, "k": k, "r": r})
    if v > DEFAULT_POINT_BOUND:
        report.checks.append(Check(_identity(n, q), INDETERMINATE, {
            "reason": f"{v} points exceed the point bound {DEFAULT_POINT_BOUND}"}))
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
        return report

    rows = [row.points for row in generate(GenParams(k=k, r=r, max_rows=b))]
    max_col = max(pts[-1] for pts in rows)
    report.add("rows stay within the point window", max_col <= v,
               {"max_column": max_col, "window": v})

    s = IncidenceStructure(point_window=max(v, max_col), lines=tuple(rows))
    design = check_design(s, v, k, r, 1)
    for c in design.checks:
        report.checks.append(Check("design: " + c.name, c.status, c.witness))

    if not _add_identity(report, rows, n, q) and design.status == PASS:
        for c in check_veblen_young(s).checks:
            report.checks.append(Check("veblen-young: " + c.name, c.status, c.witness))

    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def lemma_exhaustive(bound: int) -> VerificationReport:
    """Scan every triple in [0, bound)^3 for a violation of the greediness
    property of the nim sum.

    The scan is vectorized plane by plane; any violation is re-confirmed
    through greediness_lemma_holds, and a seeded sample of triples is always
    cross-checked against the scalar predicate to tie the two paths together.
    """
    if bound < 1:
        raise InvalidParameterError(f"bound must be at least 1, got {bound}")
    if bound > LEMMA_BOUND_CAP:
        raise ResourceLimitError(f"bound {bound} exceeds the cubic-scan cap {LEMMA_BOUND_CAP}")
    start = time.perf_counter()
    xs = np.arange(bound, dtype=np.int64)
    witness = None
    for a in range(bound):
        ab = a ^ xs                                       # over b
        premise = xs[None, :] < ab[:, None]               # c < a^b
        concl = ((a ^ xs)[None, :] < xs[:, None]) | ((xs[:, None] ^ xs[None, :]) < a)
        viol = premise & ~concl
        if viol.any():
            b_i, c_i = (int(x) for x in np.argwhere(viol)[0])
            witness = {"triple": [a, b_i, c_i],
                       "scalar_confirms": not greediness_lemma_holds(a, b_i, c_i)}
            break

    rng = np.random.default_rng(1)
    sample = rng.integers(0, bound, size=(512, 3))
    agree = all(greediness_lemma_holds(int(a), int(b), int(c)) ==
                bool(c >= (a ^ b) or (a ^ c) < b or (b ^ c) < a)
                for a, b, c in sample)

    report = VerificationReport(subject=f"greediness lemma bound={bound}",
                                counts={"bound": bound, "triples": bound ** 3})
    report.add("no counterexample in [0, bound)^3", witness is None, witness)
    report.add("scalar predicate agrees on a seeded sample", agree)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
