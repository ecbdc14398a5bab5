"""End-to-end harnesses binding the greedy rows to projective structure.

Each harness returns a VerificationReport whose JSON form (subject, status,
checks[], counts{}, elapsed_ms) is what the CLI emits.  Witnesses always
name the smallest offending row, point, or triple.

The four harnesses over greedy rows (theorem, periodicity, invariants,
general) run inside one guard, _harness, which times the report, applies
the point bound and builds the one generator, and draw their rows through
one pass, _row_pass, the only caller of next_row.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterator
from itertools import product, repeat

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
        _, b, r, k, _ = expected_counts(n, q)
        reason = run(report, NaiveMatrixGenerator(GenParams(k=k, r=r, max_rows=b)))
    if reason is not None:
        report.checks.extend(Check(name, INDETERMINATE, {"reason": reason})
                             for name in names[len(report.checks):])
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _row_pass(gen: NaiveMatrixGenerator, n: int, q: int, first: dict,
              model: bool = True) -> Iterator[tuple[int, ...]]:
    """Draw the b rows from gen, yield each right after it is committed, and
    set first[check] to the witness of the check's first failure (None
    while it holds) for these checks on row i:

    - window: its points lie in [1, v];
    - line (with the model): it is line i of pg_lines(n, q);
    - xor (with the model, at q = 2): it is a triple a < b < a^b <= v.

    With the model only a row that differs from its line is tested: every
    line lies in [1, v], and at q = 2 every line is an xor triple, so the
    first witnesses are those of testing every row.  Without it every row
    is tested for the window.  A caller reads gen's state after row i while
    the pass waits at row i.  No row is kept, and pg_lines holds one block.
    """
    first.update(window=None, line=None, xor=None)
    v, b = expected_counts(n, q)[:2]
    xor_open = model and q == 2
    for i, line in enumerate(pg_lines(n, q) if model else repeat(None, b), 1):
        row = gen.next_row()
        if row != line:
            if first["window"] is None and not (0 < row[0] and row[-1] <= v):  # rows ascend
                first["window"] = {"row": i, "points": list(row), "window": [1, v]}
            if model and first["line"] is None:
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
    s, _, r, _, d = expected_counts(n, 2)
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
    s, _, _, _, d = expected_counts(n, 2)
    names = ("each block of d rows stays in its s-column window", "row i+d equals row i shifted by s")

    def run(report, gen):
        first: dict = {}
        deque(_row_pass(gen, n, 2, first, model=False), 0)
        report.counts.update(rows=blocks * d, generated_rows=gen.emitted)
        if first["window"] is not None:
            _add(report, names[0], first["window"])
            return f"a row of block 0 leaves [1, {s}]: no reset follows row {d}"
        incomplete = next((x for x in range(1, s + 1) if not gen.is_complete(x)), None)
        if incomplete is not None or gen.max_used_column > s:
            column = f"{incomplete} is incomplete" if incomplete else f"{gen.max_used_column} is used"
            return f"column {column}: no reset follows row {d}"
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
    other window points.  A point completes only inside next_row, and from
    then on its partners are frozen, so each point is checked once, right
    after the row that completes it; the row's points ascend, so the first
    failure found is the smallest failing point of the first failing step.
    counts["complete_points"] is the number of points so checked; on a pass
    it is s.
    """
    s, _, _, _, d = expected_counts(n, 2)
    names = ("next-row points stay in the initial window",
             "complete window points are connectable to all others",
             "window points below c are connectable to a or b",
             "window points below b are connectable to a")

    def run(report, gen):
        window_mask = (1 << (s + 1)) - 2  # bits 1..s
        first: dict = {}
        claims: dict[str, dict | None] = {"claim1": None, "claim2": None, "claim3": None}
        checked = 0
        for m, (a, b, c) in enumerate(_row_pass(gen, n, 2, first, model=False)):
            # Claims 2 and 3 are read after the row is committed: it adds only
            # a, b and c to the masks of a and b, and neither need mask holds
            # them.  Every mask is nonnegative: need ^ (need & mask) is need less mask
            mask_a = gen.connectable_mask(a)
            if claims["claim2"] is None:
                need = ((1 << c) - 2) & window_mask
                need ^= need & ((1 << a) | (1 << b))
                missing = need ^ (need & (mask_a | gen.connectable_mask(b)))
                if missing:
                    claims["claim2"] = {"step": m, "next_row": [a, b, c],
                                        "point": (missing & -missing).bit_length() - 1}
            if claims["claim3"] is None:
                need = ((1 << b) - 2) & window_mask
                need ^= need & (1 << a)
                missing = need ^ (need & mask_a)
                if missing:
                    claims["claim3"] = {"step": m, "next_row": [a, b, c],
                                        "point": (missing & -missing).bit_length() - 1}
            if claims["claim1"] is None:
                for x in (a, b, c):
                    if x <= s and gen.is_complete(x):
                        checked += 1
                        need = window_mask ^ (1 << x)
                        missing = need ^ (need & gen.connectable_mask(x))
                        if missing:
                            claims["claim1"] = {"step": m + 1, "complete_point": x,
                                                "not_connectable_to": (missing & -missing).bit_length() - 1}
                            break
        report.counts["complete_points"] = checked
        # the pass's window witness, named by the step before its row
        window = first["window"]
        member = window and {"step": window["row"] - 1, "points": window["points"]}
        for name, witness in zip(names, (member, *claims.values())):
            _add(report, name, witness)

    return _harness(f"proof invariants n={n}",
                    {"n": n, "d": d, "s": s, "steps": d, "complete_points": 0}, n, 2, names, run)


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

    def run(report, gen):
        first: dict = {}
        design = check_design_lines(_row_pass(gen, n, q, first), v, k, r)
        _add(report, "rows stay within the point window", first["window"])
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
