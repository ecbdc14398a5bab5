"""End-to-end harnesses binding the greedy rows to projective structure.

Each harness returns a VerificationReport whose JSON form (subject, status,
checks[], counts{}, elapsed_ms) is what the CLI emits.  Witnesses always
name the smallest offending row, point, or triple.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterator
from itertools import product

from .errors import InputRangeError, InvalidParameterError
from .geometry import check_design_lines, expected_counts, pg_lines, point_bound_reason
from .greedy import GenParams, NaiveMatrixGenerator, generate
from .nimber import VALUE_BITS, greediness_lemma_holds
from .report import INDETERMINATE, Check, VerificationReport


def _identity(n: int, q: int) -> str:
    return f"rows equal the lines of PG({n},{q})"


def _undecided(report: VerificationReport, names, reason: str) -> None:
    report.checks.extend(Check(name, INDETERMINATE, {"reason": reason}) for name in names)


def _over_bound(report: VerificationReport, n: int, q: int, names) -> bool:
    """Above the point bound of PG(n, q), report each named check
    indeterminate, so that nothing is generated; say whether it is."""
    reason = point_bound_reason(n, q)
    if reason is not None:
        _undecided(report, names, reason)
    return reason is not None


def _checked_rows(n: int, q: int, rows, first: dict) -> Iterator[tuple[int, ...]]:
    """Yield `rows`, the greedy rows at (k, r) = (q+1, (q^n-1)/(q-1)), one
    at a time up to the b lines of PG(n, q), and set first[check] to the
    witness of the check's first failure (None while it holds) for these
    checks on row i:

    - window: its points lie in [1, v];
    - line: it is line i of pg_lines(n, q);
    - xor (q = 2): it is a triple a < b < a^b <= v.

    A row equal to its line needs no window test: every line lies in
    [1, v].  No row is kept.
    """
    first.update(window=None, line=None, xor=None)
    v = expected_counts(n, q).v
    xor_open = q == 2
    for i, (line, row) in enumerate(zip(pg_lines(n, q), rows), 1):
        if row != line:
            if first["window"] is None and not 0 < min(row) <= max(row) <= v:
                first["window"] = {"row": i, "points": list(row), "window": [1, v]}
            if first["line"] is None:
                first["line"] = {"line": i, "row": list(row), "expected": list(line)}
        if xor_open:
            a, b, c = row
            if not (a < b < c and c == (a ^ b) and c <= v):
                first["xor"] = {"row": i, "points": list(row)}
                xor_open = False
        yield row


def _add(report: VerificationReport, name: str, witness: dict | None) -> None:
    report.add(name, witness is None, witness)


def verify_theorem_q2(n: int) -> VerificationReport:
    """Generate the first d rows at (k, r) = (3, 2^n - 1) and check they are
    xor-closed triples below 2^(n+1) and, in order, the lines of PG(n, 2):
    at q = 2 pg_lines' ranked labelling is the nim-triple model.  Both
    checks read each row as it is generated; no row is kept."""
    start = time.perf_counter()
    s, _, r, _, d = expected_counts(n, 2)
    report = VerificationReport(subject=f"theorem q=2 n={n}",
                                counts={"n": n, "k": 3, "r": r, "d": d, "s": s})
    xor = "rows are xor-closed triples below 2^(n+1)"
    if not _over_bound(report, n, 2, (xor, _identity(n, 2))):
        first: dict = {}
        deque(_checked_rows(n, 2, generate(GenParams(k=3, r=r, max_rows=d)), first), 0)
        _add(report, xor, first["xor"])
        _add(report, _identity(n, 2), first["line"])
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def verify_zero_blocks_and_periodicity(n: int, blocks: int) -> VerificationReport:
    """Decide for every block t that it uses only columns in
    (t*s, (t+1)*s] and that row i+d is row i shifted by s, from block 0
    alone: `blocks` is the stated scope, and counts["rows"] = blocks*d.

    Block 0's d rows are generated and checked against the window [1, s].
    They hold 3d = s*r incidences, so if they stay in it every column 1..s
    reaches degree r: the generator is at its reset, read as
    max_used_column = s and is_complete(x) for x in 1..s.  A complete
    column is never placed again, so from row d + 1 the greedy rule sees
    only fresh columns s+1, s+2, ..., with no degree and no pair: the start
    state shifted by s.  So block 1 is block 0 shifted by s and ends at the
    reset shifted by s, and so on for every block.  With no reset after
    row d, neither claim is decided past block 0.
    """
    if blocks < 1:
        raise InvalidParameterError(f"blocks must be at least 1, got {blocks}")
    start = time.perf_counter()
    s, _, r, _, d = expected_counts(n, 2)
    report = VerificationReport(subject=f"zero blocks and periodicity n={n} blocks={blocks}",
                                counts={"n": n, "d": d, "s": s, "blocks": blocks, "rows": 0,
                                        "generated_rows": 0})
    names = ("each block of d rows stays in its s-column window", "row i+d equals row i shifted by s")
    if not _over_bound(report, n, 2, names):
        gen = NaiveMatrixGenerator(GenParams(k=3, r=r, max_rows=d))
        window = None
        for i in range(1, d + 1):
            row = gen.next_row()
            if window is None and not 0 < min(row) <= max(row) <= s:
                window = {"row": i, "points": list(row), "window": [1, s]}
        report.counts.update(rows=blocks * d, generated_rows=gen.emitted)
        incomplete = next((x for x in range(1, s + 1) if not gen.is_complete(x)), None)
        if window is not None:
            _add(report, names[0], window)
            _undecided(report, names[1:], f"a row of block 0 leaves [1, {s}]: no reset follows row {d}")
        elif incomplete is not None or gen.max_used_column > s:
            column = f"{incomplete} is incomplete" if incomplete else f"{gen.max_used_column} is used"
            _undecided(report, names, f"column {column}: no reset follows row {d}")
        else:
            for name in names:
                _add(report, name, None)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def verify_proof_invariants(n: int) -> VerificationReport:
    """Replay generation and assert the membership and connectability
    claims over the initial window, at every step m with state = the first
    m rows.

    Before each emitted row {a, b, c} (steps m < d): a, b, c lie in the
    window; every window point x < c outside {a, b} is connectable to a or
    b; every window point x < b other than a is connectable to a.

    At every step m <= d: every complete window point is connectable to all
    other window points.  A point completes only inside next_row, and from
    then on its partners are frozen, so each point is checked once, right
    after the row that completes it; the row's points ascend, so the first
    failure found is the smallest failing point of the first failing step.
    counts["complete_points"] is the number of points so checked; on a pass
    it is s.
    """
    start = time.perf_counter()
    s, _, r, _, d = expected_counts(n, 2)
    report = VerificationReport(subject=f"proof invariants n={n}",
                                counts={"n": n, "d": d, "s": s, "steps": d, "complete_points": 0})
    names = ("next-row points stay in the initial window",
             "complete window points are connectable to all others",
             "window points below c are connectable to a or b",
             "window points below b are connectable to a")
    if not _over_bound(report, n, 2, names):
        first, report.counts["complete_points"] = _replay_invariants(s, r, d)
        for name, witness in zip(names, first.values()):
            _add(report, name, witness)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _replay_invariants(s: int, r: int, d: int) -> tuple[dict, int]:
    """The first witness against each invariant, in the order the report
    lists them, and the number of complete points checked."""
    window_mask = ((1 << (s + 1)) - 1) & ~1  # bits 1..s
    gen = NaiveMatrixGenerator(GenParams(k=3, r=r, max_rows=d))

    first: dict[str, dict | None] = {"member": None, "claim1": None,
                                     "claim2": None, "claim3": None}
    checked = 0
    for m in range(d):
        # Claims 2 and 3 are read after the row is committed: it adds only
        # a, b and c to the masks of a and b, and neither need mask holds them
        a, b, c = gen.next_row()
        if first["member"] is None and not 1 <= a < b < c <= s:
            first["member"] = {"step": m, "points": [a, b, c]}
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
        if first["claim1"] is None:
            for x in (a, b, c):
                if x <= s and gen.is_complete(x):
                    checked += 1
                    missing = window_mask & ~(1 << x) & ~gen.connectable_mask(x)
                    if missing:
                        first["claim1"] = {"step": m + 1, "complete_point": x,
                                           "not_connectable_to": (missing & -missing).bit_length() - 1}
                        break

    return first, checked


def verify_general_q(a_exponent: int, n: int) -> VerificationReport:
    """Generate the first b rows at (k, r) = (q+1, (q^n-1)/(q-1)) and check
    that they are, line for line, the lines of PG(n, q) as pg_lines ranks
    them.

    The window and design checks are independent evidence on the rows
    alone; the rows go from the generator through the identity and window
    checks into the design count, and none is kept.  Above the point bound
    nothing is generated and the identity is reported as indeterminate.
    """
    if a_exponent < 0:
        raise InvalidParameterError(f"a must be nonnegative, got {a_exponent}")
    if a_exponent >= VALUE_BITS.bit_length():  # 1 << a_exponent > VALUE_BITS
        raise InputRangeError(f"q = 2^(2^{a_exponent}) exceeds the {VALUE_BITS}-bit nim value domain")
    q = 1 << (1 << a_exponent)
    v, b, r, k, _ = expected_counts(n, q)
    start = time.perf_counter()
    report = VerificationReport(subject=f"general q={q} n={n}",
                                counts={"q": q, "n": n, "v": v, "b": b, "k": k, "r": r})
    if not _over_bound(report, n, q, (_identity(n, q),)):
        first: dict = {}
        rows = _checked_rows(n, q, generate(GenParams(k=k, r=r, max_rows=b)), first)
        design = check_design_lines(rows, v, k, r)
        _add(report, "rows stay within the point window", first["window"])
        report.checks.extend(Check("design: " + c.name, c.status, c.witness) for c in design.checks)
        _add(report, _identity(n, q), first["line"])
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _lemma_states() -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each state of the signs of c - a^b, a^c - b and b^c - a that reading
    bits from the top reaches from all-equal, in breadth-first order, with a
    triple of least width that reaches it.  A sign is fixed at the first bit
    where its two sides differ, and leading zero bits leave every sign 0, so
    every triple of every width ends in one of these states."""
    least = {(0, 0, 0): (0, 0, 0)}
    queue = deque(least)
    while queue:
        state = queue.popleft()
        for a, b, c in product((0, 1), repeat=3):
            sides = ((c, a ^ b), (a ^ c, b), (b ^ c, a))
            after = tuple(sign or (x > y) - (x < y) for sign, (x, y) in zip(state, sides))
            if after not in least:
                least[after] = tuple(2 * t + bit for t, bit in zip(least[state], (a, b, c)))
                queue.append(after)
    return least


def lemma_exhaustive(bound: int) -> VerificationReport:
    """Decide the greediness property of the nim sum for every triple of
    every width, [0, bound)^3 among them.  greediness_lemma_holds reads only
    the three signs, so it holds everywhere iff it holds on each triple of
    _lemma_states; the witness is the first one it rejects."""
    if bound < 1:
        raise InvalidParameterError(f"bound must be at least 1, got {bound}")
    if bound > 1 << VALUE_BITS:
        raise InputRangeError(f"bound must be at most 2^{VALUE_BITS}, the predicate's value domain")
    start = time.perf_counter()
    states = _lemma_states()
    witness = next(({"triple": list(t)} for t in states.values()
                    if not greediness_lemma_holds(*t)), None)
    report = VerificationReport(subject=f"greediness lemma bound={bound}",
                                counts={"bound": bound, "triples": bound ** 3, "states": len(states)})
    report.add("no counterexample at any width", witness is None, witness)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
