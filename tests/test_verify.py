"""Verification harnesses and the report type."""

import json
import tracemalloc

import pytest

from naivemat import verify
from naivemat.errors import InputRangeError, InvalidParameterError, ResourceLimitError
from naivemat.geometry import build_pg
from naivemat.greedy import GenParams, NaiveMatrixGenerator, generate
from naivemat.report import Check, VerificationReport
from naivemat.verify import (lemma_exhaustive, verify_general_q, verify_proof_invariants,
                             verify_theorem_q2, verify_zero_blocks_and_periodicity)

IDENTITY = "rows equal the lines of PG({},{})"


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_report_status_derivation():
    rep = VerificationReport(subject="x")
    assert rep.status == "pass"
    rep.add("a", True)
    assert rep.status == "pass"
    rep.checks.append(Check("b", "indeterminate", None))
    assert rep.status == "indeterminate"
    rep.add("c", False, {"point": 3})
    assert rep.status == "fail"
    assert rep.first_failure().name == "b"


def test_report_json_shape():
    rep = VerificationReport(subject="demo", counts={"n": 2}, elapsed_ms=1.2345)
    rep.add("one", True)
    doc = json.loads(rep.to_json())
    assert list(doc.keys()) == ["subject", "status", "checks", "counts", "elapsed_ms"]
    assert doc["checks"] == [{"name": "one", "status": "pass", "witness": None}]
    assert doc["elapsed_ms"] == 1.234
    assert doc["status"] == "pass"


def test_window_width_identity():
    # s = 2^(n+1)-1 equals r(k-1)+1 at k=3, r=2^n-1
    for n in range(1, 9):
        r = (1 << n) - 1
        s = (1 << (n + 1)) - 1
        assert s == r * 2 + 1
        rep = verify_theorem_q2(n) if n <= 3 else None
        if rep is not None:
            assert rep.counts["s"] == s


# ---------------------------------------------------------------------------
# theorem harness
# ---------------------------------------------------------------------------

def test_theorem_n1():
    rep = verify_theorem_q2(1)
    assert rep.status == "pass"
    assert rep.counts == {"n": 1, "k": 3, "r": 1, "d": 1, "s": 3}


def test_theorem_n2_and_n5():
    rep = verify_theorem_q2(2)
    assert rep.status == "pass" and rep.counts["d"] == 7
    assert [c.name for c in rep.checks] == ["rows are xor-closed triples below 2^(n+1)",
                                            IDENTITY.format(2, 2)]
    rep = verify_theorem_q2(5)
    assert rep.status == "pass" and rep.counts["d"] == 651


def test_theorem_moved_row_names_its_line(monkeypatch):
    # the same seven triples with row 3 moved to the end: still xor-closed
    # and the same set, but no longer the lines of PG(2,2) in order
    lines = list(build_pg(2, 2).lines)
    lines.append(lines.pop(2))
    monkeypatch.setattr(verify, "generate", lambda params: iter(lines))
    rep = verify_theorem_q2(2)
    assert rep.status == "fail"
    by_name = {c.name: c for c in rep.checks}
    assert by_name["rows are xor-closed triples below 2^(n+1)"].status == "pass"
    assert by_name[IDENTITY.format(2, 2)].witness == {
        "line": 3, "row": [2, 4, 6], "expected": [1, 6, 7]}


def test_theorem_guards():
    with pytest.raises(InvalidParameterError):
        verify_theorem_q2(0)
    with pytest.raises(InvalidParameterError):
        verify_theorem_q2(11)
    assert verify_theorem_q2(3, max_n=3).status == "pass"


# ---------------------------------------------------------------------------
# periodicity harness
# ---------------------------------------------------------------------------

def test_periodicity_n1_two_blocks():
    rep = verify_zero_blocks_and_periodicity(1, 2)
    assert rep.status == "pass"
    # explicit shift: row 2 is row 1 moved by s=3
    rows = list(generate(GenParams(3, 1, 2)))
    assert rows[1] == tuple(p + 3 for p in rows[0])


@pytest.mark.parametrize("n,blocks", [(2, 3), (3, 2), (4, 3)])
def test_periodicity_families(n, blocks):
    rep = verify_zero_blocks_and_periodicity(n, blocks)
    assert rep.status == "pass"
    assert rep.counts["rows"] == blocks * rep.counts["d"]


def test_periodicity_guards():
    with pytest.raises(InvalidParameterError):
        verify_zero_blocks_and_periodicity(2, 0)


def periodic_rows(n, blocks):
    """The rows the periodicity claim predicts: PG(n,2)'s lines, block t
    shifted by t*s."""
    s = (1 << (n + 1)) - 1
    return [tuple(p + t * s for p in line) for t in range(blocks) for line in build_pg(n, 2).lines]


def test_periodicity_row_leaving_its_window(monkeypatch):
    rows = periodic_rows(2, 3)
    rows[9] = (8, 13, 15)  # row 10, block 1 = columns 8..14; should be (8, 13, 14)
    monkeypatch.setattr(verify, "generate", lambda params: iter(rows))
    rep = verify_zero_blocks_and_periodicity(2, 3)
    assert [(c.name, c.status, c.witness) for c in rep.checks] == [
        ("each block of d rows stays in its s-column window", "fail",
         {"row": 10, "points": [8, 13, 15], "window": [8, 14]}),
        ("row i+d equals row i shifted by s", "fail",
         {"row": 10, "points": [8, 13, 15], "expected": [8, 13, 14]})]
    assert rep.counts["rows"] == 21


def test_periodicity_broken_shift_in_block_2(monkeypatch):
    # rows 17 and 18 swapped: block 2 stays in its window, but row 17 is
    # no longer row 10 shifted by s = 7
    rows = periodic_rows(2, 3)
    rows[16], rows[17] = rows[17], rows[16]
    monkeypatch.setattr(verify, "generate", lambda params: iter(rows))
    rep = verify_zero_blocks_and_periodicity(2, 3)
    assert [(c.name, c.status, c.witness) for c in rep.checks] == [
        ("each block of d rows stays in its s-column window", "pass", None),
        ("row i+d equals row i shifted by s", "fail",
         {"row": 17, "points": [16, 18, 20], "expected": [15, 20, 21]})]


# ---------------------------------------------------------------------------
# proof-invariant replay
# ---------------------------------------------------------------------------

def rescan_invariants(n):
    """The invariant replay that rescans every window point for Claim 1 at
    every step m = 0..d, as (checks, counts).  Reads expected_counts and
    NaiveMatrixGenerator through `verify`, so a patch there reaches it."""
    s, _, r, _, d = verify.expected_counts(n, 2)
    window_mask = ((1 << (s + 1)) - 1) & ~1  # bits 1..s
    gen = verify.NaiveMatrixGenerator(GenParams(k=3, r=r, max_rows=d))

    first = {"member": None, "claim1": None, "claim2": None, "claim3": None}
    for m in range(d + 1):
        if first["claim1"] is None:
            for x in range(1, s + 1):
                if gen.column_degree(x) == r:
                    want = window_mask & ~(1 << x)
                    missing = want & ~gen.connectable_mask(x)
                    if missing:
                        first["claim1"] = {"step": m, "complete_point": x,
                                           "not_connectable_to": (missing & -missing).bit_length() - 1}
                        break
        if m == d:
            break
        a, b, c = gen.peek_next_row()
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
        gen.next_row()

    names = ["next-row points stay in the initial window",
             "complete window points are connectable to all others",
             "window points below c are connectable to a or b",
             "window points below b are connectable to a"]
    checks = [(name, "pass" if w is None else "fail", w) for name, w in zip(names, first.values())]
    return checks, {"n": n, "d": d, "s": s, "steps": d}


def assert_matches_rescan(n):
    rep = verify_proof_invariants(n)
    counts = dict(rep.counts)
    checked = counts.pop("complete_points")
    assert ([(c.name, c.status, c.witness) for c in rep.checks], counts) == rescan_invariants(n)
    return rep, checked


@pytest.mark.parametrize("n", range(1, 9))
def test_proof_invariants(n):
    rep = verify_proof_invariants(n)
    assert rep.status == "pass"
    assert rep.counts["steps"] == rep.counts["d"]
    # every window point completes and is checked exactly once
    assert rep.counts["complete_points"] == rep.counts["s"]


@pytest.mark.parametrize("n", range(1, 8))
def test_proof_invariants_match_rescan(n):
    assert_matches_rescan(n)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_proof_invariants_wider_window_matches_rescan(monkeypatch, n):
    # one column too many: no complete point reaches column s
    real = verify.expected_counts
    monkeypatch.setattr(verify, "expected_counts",
                        lambda n, q: real(n, q)._replace(v=real(n, q).v + 1))
    rep, _ = assert_matches_rescan(n)
    claim1 = rep.checks[1]
    assert claim1.status == "fail"
    assert claim1.witness["not_connectable_to"] == rep.counts["s"]
    if n == 1:  # row 1 completes all three points; the smallest is named
        assert claim1.witness == {"step": 1, "complete_point": 1, "not_connectable_to": 4}


@pytest.mark.parametrize("n", [1, 2, 4])
def test_proof_invariants_narrower_window_matches_rescan(monkeypatch, n):
    # one column too few: rows leave the window, but the window points
    # still complete, each is checked once, and Claim 1 holds on them
    real = verify.expected_counts
    monkeypatch.setattr(verify, "expected_counts",
                        lambda n, q: real(n, q)._replace(v=real(n, q).v - 1))
    rep, checked = assert_matches_rescan(n)
    assert rep.checks[0].status == "fail" and rep.checks[1].status == "pass"
    assert checked == rep.counts["s"]


@pytest.mark.parametrize("n,point,partner,step", [(4, 6, 11, None), (2, 6, 1, 7)])
def test_proof_invariants_hidden_partner_matches_rescan(monkeypatch, n, point, partner, step):
    class HidesOnePartner(NaiveMatrixGenerator):
        def connectable_mask(self, x):
            mask = super().connectable_mask(x)
            return mask & ~(1 << partner) if x == point else mask

    monkeypatch.setattr(verify, "NaiveMatrixGenerator", HidesOnePartner)
    rep, _ = assert_matches_rescan(n)
    claim1 = rep.checks[1]
    assert claim1.status == "fail"
    assert claim1.witness["complete_point"] == point
    assert claim1.witness["not_connectable_to"] == partner
    if step is not None:  # the last row completes the point: caught at step d
        assert claim1.witness["step"] == step == rep.counts["d"]


# ---------------------------------------------------------------------------
# memory: the q = 2 harnesses keep no rows
# ---------------------------------------------------------------------------

def _peak_bytes(harness, n):
    tracemalloc.start()
    try:
        assert harness(n).status == "pass"
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("harness", [verify_theorem_q2, verify_proof_invariants])
def test_q2_harness_memory_is_not_per_row(harness):
    # d grows 16x from n = 6 to n = 8 (2667 -> 43435 rows).  A stored row
    # costs about 280 bytes; the generator's pair masks, about s^2/8 bytes
    # (0.75 byte per row), are all that should grow.
    d6, d8 = verify.expected_counts(6, 2).d, verify.expected_counts(8, 2).d
    assert _peak_bytes(harness, 8) - _peak_bytes(harness, 6) < 8 * (d8 - d6)


# ---------------------------------------------------------------------------
# general-q harness
# ---------------------------------------------------------------------------

def test_general_q2_consistent_with_theorem():
    rep = verify_general_q(0, 2)
    assert rep.status == "pass"
    assert rep.counts["q"] == 2 and rep.counts["v"] == 7 and rep.counts["b"] == 7
    # the same rows the theorem harness checks
    assert verify_theorem_q2(2).status == "pass"


def test_general_q4_n2_with_isomorphism():
    # the isomorphism to the canonical model is the identity labelling
    rep = verify_general_q(1, 2)
    assert rep.status == "pass"
    for key, want in [("q", 4), ("n", 2), ("v", 21), ("b", 21), ("k", 5), ("r", 5)]:
        assert rep.counts[key] == want
    names = [c.name for c in rep.checks]
    assert IDENTITY.format(2, 4) in names
    assert not any(name.startswith("veblen-young") for name in names)


def test_general_q4_n3_with_isomorphism():
    rep = verify_general_q(1, 3)
    assert rep.status == "pass"
    assert rep.counts["v"] == 85 and rep.counts["b"] == 357 and rep.counts["r"] == 21


def test_general_q4_n4_passes():
    rep = verify_general_q(1, 4)
    assert rep.status == "pass"
    assert rep.counts["v"] == 341 and rep.counts["b"] == 5797


def test_general_q_point_budget_indeterminate(monkeypatch):
    # q = 256: the point bound is checked before any row is generated
    def no_rows(params):
        raise AssertionError("generated rows above the point bound")

    monkeypatch.setattr(verify, "generate", no_rows)
    rep = verify_general_q(3, 2)
    assert rep.status == "indeterminate"
    assert rep.counts["v"] == 65793
    assert [(c.name, c.status) for c in rep.checks] == [(IDENTITY.format(2, 256), "indeterminate")]
    assert rep.checks[0].witness == {"reason": "65793 points exceed the point bound 10000"}


def test_general_q_moved_point_names_its_row(monkeypatch):
    lines = list(build_pg(2, 4).lines)
    row = lines[9]
    moved = next(x for x in range(1, 22) if x not in row)
    lines[9] = tuple(sorted(row[:-1] + (moved,)))
    monkeypatch.setattr(verify, "generate", lambda params: iter(lines))
    rep = verify_general_q(1, 2)
    assert rep.status == "fail"
    by_name = {c.name: c for c in rep.checks}
    assert by_name[IDENTITY.format(2, 4)].witness == {
        "line": 10, "row": list(lines[9]), "expected": list(row)}
    assert by_name["design: every point pair is covered exactly 1 time(s)"].status == "fail"
    # not a design, so no projective space under any labelling: Pasch is skipped
    assert not any(name.startswith("veblen-young") for name in by_name)


def test_general_q_guards():
    with pytest.raises(InvalidParameterError):
        verify_general_q(-1, 2)
    with pytest.raises(InvalidParameterError):
        verify_general_q(1, 0)
    assert verify_general_q(3, 2).status == "indeterminate"  # q = 256, 65793 points
    with pytest.raises(InputRangeError):
        verify_general_q(6, 1)  # q = 2^64 leaves the 63-bit nim value domain


# ---------------------------------------------------------------------------
# lemma harness
# ---------------------------------------------------------------------------

def test_lemma_exhaustive_small_bounds():
    assert lemma_exhaustive(1).status == "pass"
    rep = lemma_exhaustive(4)
    assert rep.status == "pass"
    assert rep.counts == {"bound": 4, "triples": 64}


def test_lemma_exhaustive_guards():
    with pytest.raises(InvalidParameterError):
        lemma_exhaustive(0)
    with pytest.raises(ResourceLimitError):
        lemma_exhaustive(513)
