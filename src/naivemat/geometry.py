"""Canonical projective point-line models and incidence-structure checks.

Coordinates over GF(q) are plain integers in [0, q) with nim arithmetic
(nim_mul), so a projective point is a tuple of ints whose first nonzero
entry is 1.  Incidence structures carry 1-based point indices throughout.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, PreconditionError, ResourceLimitError
from .nimber import is_fermat_two_power, nim_mul
from .report import VerificationReport

DEFAULT_POINT_BOUND = 10_000
_PAIR_CHUNK = 1 << 21  # pair ranks counted per bincount in check_design

PgCounts = namedtuple("PgCounts", "v b r k d")


def expected_counts(n: int, q: int) -> PgCounts:
    """Point, line, and incidence counts of PG(n, q); d is the identified
    greedy row count (equal to b)."""
    if n < 1:
        raise InvalidParameterError(f"dimension n must be at least 1, got {n}")
    if not is_fermat_two_power(q):
        raise InvalidParameterError(f"field order must be a Fermat 2-power, got {q}")
    v = (q ** (n + 1) - 1) // (q - 1)
    r = (q ** n - 1) // (q - 1)
    k = q + 1
    assert v * r % k == 0
    b = v * r // k
    return PgCounts(v, b, r, k, b)


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

@dataclass
class IncidenceStructure:
    """A finite list of lines (sorted point tuples) over points 1..point_window."""

    point_window: int
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = []
        for line in self.lines:
            pts = tuple(sorted(line))
            if not pts:
                raise InvalidParameterError("empty lines are not allowed")
            if len(set(pts)) != len(pts):
                raise InvalidParameterError(f"line {pts} repeats a point")
            if pts[0] < 1 or pts[-1] > self.point_window:
                raise InvalidParameterError(
                    f"line {pts} leaves the point window [1, {self.point_window}]")
            norm.append(pts)
        if len(set(norm)) != len(norm):
            raise InvalidParameterError("repeated lines are not allowed")
        self.lines = tuple(norm)

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    def line_masks(self) -> list[int]:
        masks = []
        for line in self.lines:
            m = 0
            for p in line:
                m |= 1 << p
            masks.append(m)
        return masks


@dataclass(frozen=True)
class CanonicalGeometry:
    """PG(n, q) built from normalized coordinate vectors over the nim field."""

    n: int
    q: int
    points: tuple[tuple[int, ...], ...]
    lines: tuple[tuple[int, ...], ...]  # 1-based indices into points

    @property
    def v(self) -> int:
        return len(self.points)

    @property
    def b(self) -> int:
        return len(self.lines)

    def as_incidence(self) -> IncidenceStructure:
        return IncidenceStructure(point_window=self.v, lines=self.lines)


def pg_lines(n: int, q: int, point_bound: int = DEFAULT_POINT_BOUND) -> Iterator[tuple[int, ...]]:
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
    enumeration is O(b*k) with no inverse, lookup or sort, and it holds
    no line once it is yielded.  The parameters and the point bound are
    checked before this returns.
    """
    v = expected_counts(n, q).v
    if v > point_bound:
        raise ResourceLimitError(f"PG({n},{q}) has {v} points, above the bound {point_bound}")
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
        step = [lam << (w * low_len) for lam in range(q)]
        for t2 in range(q ** low_len):
            p2 = first[low_len] + t2
            cols = [(step[lam], scaled[lam][t2]) for lam in range(q)]
            for m in range(low_len + 1, n + 1):  # coordinates after row 1's pivot
                for mid in range(q ** (m - low_len - 1)):  # between the pivots
                    head = first[m] + (mid << (w * (low_len + 1)))
                    for low in range(q ** low_len):
                        yield (p2,) + tuple(head + hi + (low ^ s) for hi, s in cols)


def build_pg(n: int, q: int, point_bound: int = DEFAULT_POINT_BOUND) -> CanonicalGeometry:
    """Points and lines of PG(n, q) in the ranked labelling of pg_lines,
    all held in memory (for export; the harnesses compare against
    pg_lines as they go)."""
    counts = expected_counts(n, q)
    lines = tuple(pg_lines(n, q, point_bound))
    points = tuple((0,) * (n - m) + (1,) + tail
                   for m in range(n + 1)
                   for tail in itertools.product(range(q), repeat=m))
    if len(lines) != counts.b or len(points) != counts.v:
        raise RuntimeError(f"PG({n},{q}) construction produced inconsistent counts")
    return CanonicalGeometry(n=n, q=q, points=points, lines=lines)


# ---------------------------------------------------------------------------
# design and Pasch checks
# ---------------------------------------------------------------------------

def check_design(s: IncidenceStructure, v: int, k: int, r: int, lam: int = 1,
                 subject: str | None = None) -> VerificationReport:
    """Verify the 2-(v, k, lam) conditions with per-point degree r.

    All conditions are evaluated (a failing count identity does not hide an
    uncovered pair); each failing check carries its smallest witness.
    """
    start = time.perf_counter()
    report = VerificationReport(subject=subject or f"design 2-({v},{k},{lam}) with r={r}")
    b = s.num_lines
    report.add("b*k = v*r", b * k == v * r, {"b": b, "k": k, "v": v, "r": r})

    bad_window = next((i for i, line in enumerate(s.lines) if line[-1] > v or line[0] < 1), None)
    report.add("lines stay within [1, v]", bad_window is None,
               None if bad_window is None else {"line": bad_window + 1,
                                                "points": list(s.lines[bad_window])})

    bad_size = next((i for i, line in enumerate(s.lines) if len(line) != k), None)
    report.add("every line has k points", bad_size is None,
               None if bad_size is None else {"line": bad_size + 1,
                                              "size": len(s.lines[bad_size])})

    deg, cover = _cover_counts(s.lines, max(s.point_window, v), v)
    bad = np.flatnonzero(deg[1:v + 1] != r)
    report.add("every point has degree r", not bad.size,
               bad.size and {"point": int(bad[0]) + 1, "degree": int(deg[bad[0] + 1])})

    bad = np.flatnonzero(cover != lam)
    report.add(f"every point pair is covered exactly {lam} time(s)", not bad.size,
               bad.size and {"pair": _unrank_pair(int(bad[0]), v), "count": int(cover[bad[0]])})

    report.counts = {"v": v, "k": k, "r": r, "lambda": lam, "lines": b}
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _cover_counts(lines, top: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree of every point 0..top, and how many lines hold each pair
    x < y of points in [1, v], indexed by the pair's rank in lex order.

    Lines are grouped by size and turned into arrays a bounded chunk at a
    time; pairs with a point above v are not counted.
    """
    deg = np.zeros(top + 1, dtype=np.int64)
    cover = np.zeros(v * (v - 1) // 2, dtype=np.int64)
    by_size: dict[int, list] = {}
    for line in lines:
        by_size.setdefault(len(line), []).append(line)
    for size, group in by_size.items():
        i, j = np.triu_indices(size, 1)
        step = max(1, _PAIR_CHUNK // max(1, len(i)))
        for at in range(0, len(group), step):
            pts = np.array(group[at:at + step], dtype=np.int64)
            deg += np.bincount(pts.ravel(), minlength=top + 1)
            x, y = pts[:, i].ravel(), pts[:, j].ravel()  # lines are sorted: x < y
            keep = y <= v
            x, y = x[keep], y[keep]
            cover += np.bincount((x - 1) * v - (x - 1) * x // 2 + (y - x - 1),
                                 minlength=len(cover))
    return deg, cover


def _unrank_pair(rank: int, v: int) -> list[int]:
    """The pair x < y in [1, v] at this rank in lex order."""
    x = 1
    while rank >= v - x:
        rank -= v - x
        x += 1
    return [x, x + 1 + rank]


def check_veblen_young(s: IncidenceStructure) -> VerificationReport:
    """Pasch closure: a line meeting two sides of a triangle away from its
    vertices must meet the third side.

    Requires a partial linear space (no pair on two lines).  If every pair
    of lines already meets, as in any projective plane, the axiom holds
    outright and the triangle scan is skipped.
    """
    start = time.perf_counter()
    v = s.point_window
    pair_to_line: dict[tuple[int, int], int] = {}
    for idx, line in enumerate(s.lines):
        for pair in itertools.combinations(line, 2):
            if pair in pair_to_line:
                raise PreconditionError(
                    f"pair {pair} lies on two lines; Pasch closure needs a partial linear space")
            pair_to_line[pair] = idx

    masks = s.line_masks()
    report = VerificationReport(subject="veblen-young (pasch closure)")

    all_meet = True
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            if not mi & masks[j]:
                all_meet = False
                break
        if not all_meet:
            break
    if all_meet:
        report.add("pasch closure", True)
        report.counts = {"points": v, "lines": s.num_lines, "triangles": 0,
                         "transversals": 0, "all_line_pairs_meet": 1}
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
        return report

    triangles = 0
    transversals = 0
    witness = None
    lines = s.lines
    for abc in itertools.combinations(range(1, v + 1), 3):
        pa, pb, pc = abc
        ab = pair_to_line.get((pa, pb))
        ac = pair_to_line.get((pa, pc))
        bc = pair_to_line.get((pb, pc))
        if ab is None or ac is None or bc is None:
            continue
        if (masks[ab] >> pc) & 1:  # collinear
            continue
        triangles += 1
        for apex, u, w, l1, l2, side in ((pa, pb, pc, ab, ac, bc),
                                         (pb, pa, pc, ab, bc, ac),
                                         (pc, pa, pb, ac, bc, ab)):
            side_mask = masks[side]
            for p in lines[l1]:
                if p == apex or p == u:
                    continue
                for qq in lines[l2]:
                    if qq == apex or qq == w:
                        continue
                    t = pair_to_line.get((p, qq) if p < qq else (qq, p))
                    if t is None:
                        continue
                    transversals += 1
                    if not masks[t] & side_mask:
                        witness = {"triangle": list(abc), "apex": apex,
                                   "meet_ab": p, "meet_ac": qq,
                                   "transversal": list(lines[t]),
                                   "side": list(lines[side])}
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break

    report.add("pasch closure", witness is None, witness)
    report.counts = {"points": v, "lines": s.num_lines, "triangles": triangles,
                     "transversals": transversals, "all_line_pairs_meet": 0}
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
