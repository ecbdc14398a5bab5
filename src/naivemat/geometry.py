"""Canonical projective point-line models and the design check.

Coordinates over GF(q) are plain integers in [0, q) with nim arithmetic
(nim_mul).  A projective point is a vector whose first nonzero entry is 1,
known only by its 1-based rank (see pg_lines); lines carry such point
indices throughout.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import repeat

from .errors import InvalidParameterError, ResourceLimitError
from .nimber import VALUE_BITS, is_fermat_two_power, nim_mul
from .report import VerificationReport

DEFAULT_POINT_BOUND = 10_000

PgCounts = namedtuple("PgCounts", "v b r k")


def expected_counts(n: int, q: int) -> PgCounts:
    """Point, line, and incidence counts of PG(n, q).

    v has n*log2(q) + 1 bits, as q^n <= v < 2q^n.  Past the VALUE_BITS
    value domain every count but k is None and is never built, so a huge n
    costs nothing.
    """
    if n < 1:
        raise InvalidParameterError(f"dimension n must be at least 1, got {n}")
    if not is_fermat_two_power(q):
        raise InvalidParameterError(f"field order must be a Fermat 2-power, got {q}")
    k = q + 1
    if (q.bit_length() - 1) * n >= VALUE_BITS:
        return PgCounts(None, None, None, k)
    v = (q ** (n + 1) - 1) // (q - 1)
    r = (q ** n - 1) // (q - 1)
    assert v * r % k == 0
    b = v * r // k
    return PgCounts(v, b, r, k)


def point_bound_reason(n: int, q: int) -> str | None:
    """None if PG(n, q) has at most DEFAULT_POINT_BOUND points (read at call
    time), else why it is too large to build.  The count comes from
    expected_counts, so it is decided before any huge count is built."""
    v = expected_counts(n, q).v
    if v is not None and v <= DEFAULT_POINT_BOUND:
        return None
    points = f"at least 2^{VALUE_BITS}" if v is None else v
    return f"{points} points exceed the point bound {DEFAULT_POINT_BOUND}"


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

class CanonicalGeometry(namedtuple("CanonicalGeometry", "v lines")):
    """PG(n, q) in the ranked labelling of pg_lines: its point count v and
    its lines, each a tuple of 1-based point ranks."""

    __slots__ = ()


def pg_lines(n: int, q: int) -> Iterator[tuple[int, ...]]:
    """The lines of PG(n, q) with nim-field coordinates, in the ranked
    labelling, yielded one at a time in lex order.

    Points are the normalized vectors, numbered by ascending base-q value:
    a vector with m coordinates after its leading 1 and tail t (the base-q
    value of those coordinates) is point (q^m - 1)/(q - 1) + t + 1.

    Each line is enumerated once, as the reduced echelon basis of its
    2-dimensional subspace: row 2 has its leading 1 at pivot j, row 1 has
    its leading 1 at pivot i < j and a 0 at j.  The points are row 2 and
    row 1 + lam*row 2 for lam in GF(q), already normalized and already in
    ascending order, and the loops run in lex order of the lines, so the
    enumeration is O(b*k) with no inverse, lookup or sort.  The lines are
    built a block at a time: one row 2 and one pivot i, with every choice of
    row 1's coordinates after i.  A block is one list of points per lam,
    zipped into lines, so the stream holds at most q^(n-1) lines' points,
    under (q + 1)*q^(n-1) ints in all, however many lines it yields.  The
    parameters and the point bound (point_bound_reason) are checked before
    this returns.
    """
    reason = point_bound_reason(n, q)
    if reason:
        raise ResourceLimitError(f"PG({n},{q}): {reason}")
    return _ranked_lines(n, q)


def _ranked_lines(n: int, q: int) -> Iterator[tuple[int, ...]]:
    w = q.bit_length() - 1  # bits per base-q digit
    mul = [[nim_mul(lam, x) for x in range(q)] for lam in range(q)]
    # scaled[lam][t]: the tail t with every base-q digit nim-multiplied by
    # lam; row 2's tail has at most n - 1 digits
    scaled = []
    for lam in range(q):
        table = [0]
        for _ in range(n - 1):
            table = [(hi << w) | lo for hi in table for lo in mul[lam]]
        scaled.append(table)
    first = [(q ** m - 1) // (q - 1) + 1 for m in range(n + 1)]  # rank at tail 0

    for low_len in range(n):  # coordinates after row 2's pivot
        lows = range(q ** low_len)  # the tails of low_len digits
        step = [lam << (w * low_len) for lam in range(q)]
        for t2 in lows:  # row 2's tail
            p2 = first[low_len] + t2
            # lam*row 2 puts lam at row 2's pivot, above row 1's low digits,
            # and adds its scaled tail to them: one xor key per lam
            keys = [step[lam] | scaled[lam][t2] for lam in range(q)]
            for m in range(low_len + 1, n + 1):  # coordinates after row 1's pivot
                # one block, every (mid, low): mid lies between the pivots
                heads = [first[m] + (mid << (w * (low_len + 1))) for mid in range(q ** (m - low_len - 1))]
                # the point row 1 + lam*row 2 of every line in the block, per lam
                columns = [[head + (low ^ key) for head in heads for low in lows] for key in keys]
                yield from zip(repeat(p2), *columns)


def build_pg(n: int, q: int) -> CanonicalGeometry:
    """The lines of pg_lines(n, q) held in memory, with v and the line
    count checked from expected_counts; only the benchmark's trace worker
    calls it (export-pg and the harnesses read pg_lines as they go)."""
    lines = tuple(pg_lines(n, q))
    counts = expected_counts(n, q)
    if len(lines) != counts.b:
        raise RuntimeError(f"PG({n},{q}) construction produced inconsistent counts")
    return CanonicalGeometry(v=counts.v, lines=lines)


# ---------------------------------------------------------------------------
# design check
# ---------------------------------------------------------------------------

def check_design_lines(lines: Iterable[tuple[int, ...]], v: int, k: int, r: int) -> VerificationReport:
    """Verify the 2-(v, k, 1) conditions with per-point degree r on
    nonempty lines of strictly ascending points, read once.

    All conditions are evaluated (a failing count identity does not hide an
    uncovered pair); each failing check carries its smallest witness.  No
    line is kept, so they may come from a generator.  Points outside [1, v]
    are named by the window check and otherwise ignored.

    Bit i of cover[p] means the pair (p, v - i) is covered, so the covers
    take v^2/16 bytes and no count is kept.  Each line is walked from its
    top point down, so the mask of the points above p gains one bit per
    step instead of being cut from a whole-line mask by a shift.  A line that covers a covered pair doubles it;
    the smallest doubled pair is kept with its running count, which starts
    at 2 because that minimum only decreases.  After the last line the
    first cover[p] with a zero bit names the smallest uncovered pair, and
    the smaller of the two is the witness.
    """
    start = time.perf_counter()
    report = VerificationReport(subject=f"design 2-({v},{k},1) with r={r}")
    deg = [0] * (v + 1)
    cover = [0] * v  # cover[0] is unused, and no pair starts at v
    doubled, times = None, 0  # the smallest pair covered more than once, and its count
    b = 0
    bad_window = bad_size = None
    for b, line in enumerate(lines, 1):
        if bad_size is None and len(line) != k:
            bad_size = {"line": b, "size": len(line)}
        if line[0] < 1 or line[-1] > v:
            if bad_window is None:
                bad_window = {"line": b, "points": list(line)}
            line = [p for p in line if 0 < p <= v]
        m = above = 0  # m: bit v - y for each point y of the line above p
        for p in reversed(line):
            deg[p] += 1
            if above:
                m |= 1 << (v - above)
                c = cover[p]
                hit = c & m
                if hit:
                    pair = (p, v + 1 - hit.bit_length())
                    if doubled is None or pair < doubled:
                        doubled, times = pair, 2
                    elif pair == doubled:
                        times += 1
                cover[p] = c | m
            above = p

    report.add("b*k = v*r", b * k == v * r, {"b": b, "k": k, "v": v, "r": r})
    report.add("lines stay within [1, v]", bad_window is None, bad_window)
    report.add("every line has k points", bad_size is None, bad_size)
    bad = next((p for p in range(1, v + 1) if deg[p] != r), None)
    report.add("every point has degree r", bad is None, bad and {"point": bad, "degree": deg[bad]})
    x = next((x for x in range(1, v) if cover[x].bit_count() != v - x), None)
    if x is not None:
        uncovered = (x, v + 1 - (((1 << (v - x)) - 1) ^ cover[x]).bit_length())
        if doubled is None or uncovered < doubled:
            doubled, times = uncovered, 0
    report.add("every point pair is covered exactly 1 time(s)", doubled is None,
               doubled and {"pair": list(doubled), "count": times})
    report.counts = {"v": v, "k": k, "r": r, "lambda": 1, "lines": b}
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
