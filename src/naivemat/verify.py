"""End-to-end harnesses binding the greedy rows to projective structure.

Each harness returns a VerificationReport whose JSON form (subject, status,
checks[], counts{}, elapsed_ms) is what the CLI emits.  Witnesses always
name the smallest offending row, point, or triple.

The four harnesses over greedy rows (theorem, periodicity, invariants,
general) run inside one guard, _harness, which times the report, applies
the point bound and builds the one generator, and each draws every row
once, through next_row: theorem and general in one pass against the
model, _row_pass, periodicity and invariants in plain loops.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterator
from itertools import product

from .errors import InputRangeError, InvalidParameterError
from .geometry import check_design_lines, expected_counts, pg_lines, point_bound_reason
from .greedy import GenParams, NaiveMatrixGenerator
from .nimber import VALUE_BITS, greediness_lemma_holds
from .report import INDETERMINATE, Check, VerificationReport


def _identity(n: int, q: int) -> str:
    return f"rows equal the lines of PG({n},{q})"


def _harness(subject: str, counts: dict, n: int, q: int, names, run) -> VerificationReport:
    """The report of run(report, gen), timed, with gen the one generator of
    the b greedy rows at (k, r) = (q+1, (q^n-1)/(q-1)).

    Above the point bound of PG(n, q) nothing is generated and each named
    check is reported indeterminate.  Otherwise run adds its checks, the
    named ones in the order of `names`, and returns None, or the reason
    the named checks it did not add are undecided.
    """
    start = time.perf_counter()
    report = VerificationReport(subject, counts)
    reason = point_bound_reason(n, q)
    if reason is None:
        _, b, r, k = expected_counts(n, q)
        reason = run(report, NaiveMatrixGenerator(GenParams(k=k, r=r, max_rows=b)))
    if reason is not None:
        report.checks.extend(Check(name, INDETERMINATE, {"reason": reason})
                             for name in names[len(report.checks):])
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _row_pass(gen: NaiveMatrixGenerator, n: int, q: int, first: dict) -> Iterator[tuple[int, ...]]:
    """Draw the b rows from gen, yield each right after it is committed, and
    set first[check] to the witness of the check's first failure (None
    while it holds) for these checks on row i:

    - line: it is line i of pg_lines(n, q);
    - xor (at q = 2): it is a triple a < b < a^b <= v.

    Only a row that differs from its line is tested: at q = 2 every line
    is an xor triple, so the first witness is that of testing every row.
    No row is kept, and pg_lines holds one block.
    """
    first.update(line=None, xor=None)
    v = expected_counts(n, q).v
    xor_open = q == 2
    for i, line in enumerate(pg_lines(n, q), 1):
        row = gen.next_row()
        if row != line:
            if first["line"] is None:
                first["line"] = {"line": i, "row": list(row), "expected": list(line)}
            if xor_open:
                x, y, z = row
                if not (x < y < z and z == (x ^ y) and z <= v):
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
    s, d, r, _ = expected_counts(n, 2)
    names = ("rows are xor-closed triples below 2^(n+1)", _identity(n, 2))

    def run(report, gen):
        first: dict = {}
        deque(_row_pass(gen, n, 2, first), 0)
        _add(report, names[0], first["xor"])
        _add(report, names[1], first["line"])

    return _harness(f"theorem q=2 n={n}", {"n": n, "k": 3, "r": r, "d": d, "s": s}, n, 2, names, run)


def verify_zero_blocks_and_periodicity(n: int, blocks: int) -> VerificationReport:
    """Decide for every block t that it uses only columns in
    (t*s, (t+1)*s] and that row i+d is row i shifted by s, from block 0
    alone: `blocks` is the stated scope, and counts["rows"] = blocks*d.

    Block 0's d rows are generated and checked against the window [1, s].
    They hold 3d = s*r incidences, so if they stay in it every column 1..s
    reaches degree r: the generator is at its reset, read as floor =
    max_used_column = s.  A complete column is never placed again, so from
    row d + 1 the greedy rule sees only fresh columns s+1, s+2, ..., with
    no degree and no pair: the start state shifted by s.  So block 1 is block 0 shifted by s and ends at the
    reset shifted by s, and so on for every block.  With no reset after
    row d, neither claim is decided past block 0.
    """
    if blocks < 1:
        raise InvalidParameterError(f"blocks must be at least 1, got {blocks}")
    s, d, _, _ = expected_counts(n, 2)
    names = ("each block of d rows stays in its s-column window", "row i+d equals row i shifted by s")

    def run(report, gen):
        window = None
        for i in range(1, d + 1):
            row = gen.next_row()
            if not 0 < row[0] <= row[-1] <= s and window is None:  # rows ascend
                window = {"row": i, "points": list(row), "window": [1, s]}
        report.counts.update(rows=blocks * d, generated_rows=gen.emitted)
        if window is not None:
            _add(report, names[0], window)
            return f"a row of block 0 leaves [1, {s}]: no reset follows row {d}"
        if gen.floor < s:  # column floor + 1 is the least incomplete one
            return f"column {gen.floor + 1} is incomplete: no reset follows row {d}"
        if gen.max_used_column > s:
            return f"column {gen.max_used_column} is used: no reset follows row {d}"
        for name in names:
            _add(report, name, None)
        return None

    return _harness(f"zero blocks and periodicity n={n} blocks={blocks}",
                    {"n": n, "d": d, "s": s, "blocks": blocks, "rows": 0, "generated_rows": 0},
                    n, 2, names, run)


def verify_proof_invariants(n: int) -> VerificationReport:
    """Replay generation and assert the membership and connectability
    claims over the initial window, at every step m with state = the first
    m rows.

    Before each emitted row {a, b, c} (steps m < d): a, b, c lie in the
    window; every window point x < c outside {a, b} is connectable to a or
    b; every window point x < b other than a is connectable to a.

    At every step m <= d: every complete window point is connectable to all
    other window points.  A point completes in the row that gives it degree
    r, and from then on its partners are frozen, so each point is checked
    once, right after that row; the row's points ascend, so the first
    failure found is the smallest failing point of the first failing step.
    counts["complete_points"] is the number of points so checked; on a pass
    it is s.

    The claims are read from the rows alone, through each point's degree
    and closed partner mask (bit y for y itself and each point it shares a
    row with), built as the rows are drawn: about s^2/8 bytes, and no row.
    """
    s, d, r, _ = expected_counts(n, 2)
    names = ("next-row points stay in the initial window",
             "complete window points are connectable to all others",
             "window points below c are connectable to a or b",
             "window points below b are connectable to a")

    def run(report, gen):
        degree, pair = [0] * (s + 1), [0] * (s + 1)  # index x for point x
        member = claim1 = claim2 = claim3 = None
        checked = 0
        for m in range(d):
            a, b, c = row = gen.next_row()
            if not 0 < a <= c <= s:  # rows ascend
                if member is None:
                    member = {"step": m, "points": [a, b, c]}
                if c >= len(pair):
                    grow = [0] * (c + 1 - len(pair))
                    degree += grow
                    pair += grow
            bits = (1 << a) | (1 << b) | (1 << c)
            degree[a] += 1
            degree[b] += 1
            degree[c] += 1
            pair[a] |= bits
            pair[b] |= bits
            pair[c] |= bits
            # read with the row added, which puts a, b and c in the closed masks of a
            # and b: neither claim asks for them.  z is the least point a mask leaves
            # out, the lowest unset bit of mask | 1
            if claim2 is None:
                z = ((mask := pair[a] | pair[b] | 1) ^ (mask + 1)).bit_length() - 1
                if z < c and z <= s:
                    claim2 = {"step": m, "next_row": [a, b, c], "point": z}
            if claim3 is None:
                z = ((mask := pair[a] | 1) ^ (mask + 1)).bit_length() - 1
                if z < b and z <= s:
                    claim3 = {"step": m, "next_row": [a, b, c], "point": z}
            if claim1 is None and r in (degree[a], degree[b], degree[c]):
                for x in row:
                    if x <= s and degree[x] == r:
                        checked += 1
                        z = ((mask := pair[x] | 1) ^ (mask + 1)).bit_length() - 1
                        if z <= s:
                            claim1 = {"step": m + 1, "complete_point": x, "not_connectable_to": z}
                            break
        report.counts["complete_points"] = checked
        for name, witness in zip(names, (member, claim1, claim2, claim3)):
            _add(report, name, witness)

    return _harness(f"proof invariants n={n}",
                    {"n": n, "d": d, "s": s, "steps": d, "complete_points": 0}, n, 2, names, run)


def verify_general_q(a_exponent: int, n: int) -> VerificationReport:
    """Generate the first b rows at (k, r) = (q+1, (q^n-1)/(q-1)) and check
    that they are, line for line, the lines of PG(n, q) as pg_lines ranks
    them.

    The design checks are independent evidence on the rows alone, their
    "lines stay within [1, v]" the window check; the rows go from the
    generator through the identity check into the design count, and none
    is kept.  Above the point bound nothing is generated and the identity
    is reported as indeterminate.
    """
    if a_exponent < 0:
        raise InvalidParameterError(f"a must be nonnegative, got {a_exponent}")
    if a_exponent >= VALUE_BITS.bit_length():  # 1 << a_exponent > VALUE_BITS
        raise InputRangeError(f"q = 2^(2^{a_exponent}) exceeds the {VALUE_BITS}-bit nim value domain")
    q = 1 << (1 << a_exponent)
    v, b, r, k = expected_counts(n, q)

    def run(report, gen):
        first: dict = {}
        design = check_design_lines(_row_pass(gen, n, q, first), v, k, r)
        report.checks.extend(Check("design: " + c.name, c.status, c.witness) for c in design.checks)
        _add(report, _identity(n, q), first["line"])

    return _harness(f"general q={q} n={n}", {"q": q, "n": n, "v": v, "b": b, "k": k, "r": r},
                    n, q, (_identity(n, q),), run)


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
