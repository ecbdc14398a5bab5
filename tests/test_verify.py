"""Verification harnesses and the report type."""

import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from naivemat import verify
from naivemat.cli import main
from naivemat.errors import InputRangeError, InvalidParameterError
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


def test_report_json_shape():
    rep = VerificationReport(subject="demo", counts={"n": 2})
    rep.elapsed_ms = 1.2345
    rep.add("one", True)
    doc = json.loads(rep.to_json())
    assert list(doc.keys()) == ["subject", "status", "checks", "counts", "elapsed_ms"]
    assert doc["checks"] == [{"name": "one", "status": "pass", "witness": None}]
    assert doc["elapsed_ms"] == 1.234
    assert doc["status"] == "pass"


def test_report_values():
    assert Check("a", "pass").witness is None
    assert Check("a", "fail", {"row": 1}) == Check(name="a", status="fail", witness={"row": 1})
    counts = {"n": 2}
    one, two = VerificationReport(subject="one", counts=counts), VerificationReport(subject="two")
    one.add("x", False, {"row": 1})
    one.counts["m"] = 3
    assert two.checks == [] and two.counts == {}
    assert counts == {"n": 2}  # each report holds its own copy
    assert two.status == "pass" and two.elapsed_ms == 0.0


# ---------------------------------------------------------------------------
# golden reports: the full passing report of each harness over greedy rows
# ---------------------------------------------------------------------------

def passed(*names):
    return [{"name": name, "status": "pass", "witness": None} for name in names]


@pytest.mark.parametrize("harness, args, report", [
    (verify_theorem_q2, (3,), {
        "subject": "theorem q=2 n=3", "status": "pass",
        "checks": passed("rows are xor-closed triples below 2^(n+1)", IDENTITY.format(3, 2)),
        "counts": {"n": 3, "k": 3, "r": 7, "d": 35, "s": 15}}),
    (verify_zero_blocks_and_periodicity, (3, 2), {
        "subject": "zero blocks and periodicity n=3 blocks=2", "status": "pass",
        "checks": passed("each block of d rows stays in its s-column window",
                         "row i+d equals row i shifted by s"),
        "counts": {"n": 3, "d": 35, "s": 15, "blocks": 2, "rows": 70, "generated_rows": 35}}),
    (verify_proof_invariants, (3,), {
        "subject": "proof invariants n=3", "status": "pass",
        "checks": passed("next-row points stay in the initial window",
                         "complete window points are connectable to all others",
                         "window points below c are connectable to a or b",
                         "window points below b are connectable to a"),
        "counts": {"n": 3, "d": 35, "s": 15, "steps": 35, "complete_points": 15}}),
    (verify_general_q, (1, 2), {
        "subject": "general q=4 n=2", "status": "pass",
        "checks": passed("design: b*k = v*r", "design: lines stay within [1, v]",
                         "design: every line has k points", "design: every point has degree r",
                         "design: every point pair is covered exactly 1 time(s)",
                         IDENTITY.format(2, 4)),
        "counts": {"q": 4, "n": 2, "v": 21, "b": 21, "k": 5, "r": 5}}),
], ids=["theorem", "periodicity", "invariants", "general"])
def test_passing_report_is_golden(harness, args, report):
    doc = harness(*args).to_dict()
    del doc["elapsed_ms"]
    assert doc == report


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


def test_theorem_moved_row_names_its_line(replay_rows):
    # the same seven triples with row 3 moved to the end: still xor-closed
    # and the same set, but no longer the lines of PG(2,2) in order
    lines = list(build_pg(2, 2).lines)
    lines.append(lines.pop(2))
    replay_rows(lines)
    rep = verify_theorem_q2(2)
    assert rep.status == "fail"
    by_name = {c.name: c for c in rep.checks}
    assert by_name["rows are xor-closed triples below 2^(n+1)"].status == "pass"
    assert by_name[IDENTITY.format(2, 2)].witness == {
        "line": 3, "row": [2, 4, 6], "expected": [1, 6, 7]}


def test_theorem_witness_pass_reads_every_row(replay_rows):
    # rows 2 and 3 swapped, both still xor triples, and row 10 no xor
    # triple: the identity fails first at row 2, and the pass that names
    # the witnesses reads on to row 10
    lines = list(build_pg(3, 2).lines)
    lines[1], lines[2] = lines[2], lines[1]
    lines[9] = (2, 9, 12)
    replay_rows(lines)
    rep = verify_theorem_q2(3)
    assert [(c.status, c.witness) for c in rep.checks] == [
        ("fail", {"row": 10, "points": [2, 9, 12]}),
        ("fail", {"line": 2, "row": [1, 6, 7], "expected": [1, 4, 5]})]


def test_theorem_guards(replay_rows):
    with pytest.raises(InvalidParameterError):
        verify_theorem_q2(0)
    # n = 13: s = 16383 columns, above the point bound that every harness
    # over greedy rows shares; decided before any row is generated
    replay_rows(())
    reason = {"reason": "16383 points exceed the point bound 10000"}
    for rep in (verify_theorem_q2(13), verify_zero_blocks_and_periodicity(13, 3),
                verify_proof_invariants(13), verify_general_q(0, 13)):
        assert rep.status == "indeterminate"
        assert rep.counts["n"] == 13
        assert {c.status for c in rep.checks} == {"indeterminate"}
        assert all(c.witness == reason for c in rep.checks)
    assert [c.name for c in verify_theorem_q2(13).checks] == [
        "rows are xor-closed triples below 2^(n+1)", IDENTITY.format(13, 2)]


# ---------------------------------------------------------------------------
# periodicity harness
# ---------------------------------------------------------------------------

def test_periodicity_past_the_column_cap_passes():
    # 400000 blocks of s = 3 columns reach column 1,200,000, past 2^20:
    # block 0's reset decides them all, and it is the only block generated
    rep = verify_zero_blocks_and_periodicity(1, 400_000)
    assert rep.status == "pass"
    assert rep.counts == {"n": 1, "d": 1, "s": 3, "blocks": 400_000, "rows": 400_000,
                          "generated_rows": 1}


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
    assert rep.counts["generated_rows"] == rep.counts["d"]


def test_periodicity_guards():
    with pytest.raises(InvalidParameterError):
        verify_zero_blocks_and_periodicity(2, 0)


WINDOW = "each block of d rows stays in its s-column window"
SHIFT = "row i+d equals row i shifted by s"


class LeavesTheWindow(NaiveMatrixGenerator):
    def next_row(self):
        row = super().next_row()
        return (1, 6, 8) if self.emitted == 3 else row  # row 3 of PG(2,2) is (1, 6, 7)


def test_periodicity_row_leaving_its_window(monkeypatch):
    monkeypatch.setattr(verify, "NaiveMatrixGenerator", LeavesTheWindow)
    rep = verify_zero_blocks_and_periodicity(2, 3)
    assert [(c.name, c.status, c.witness) for c in rep.checks] == [
        (WINDOW, "fail", {"row": 3, "points": [1, 6, 8], "window": [1, 7]}),
        (SHIFT, "indeterminate", {"reason": "a row of block 0 leaves [1, 7]: no reset follows row 7"})]
    assert rep.counts["rows"] == 21 and rep.counts["generated_rows"] == 7


class LeavesColumn5Open(NaiveMatrixGenerator):
    def next_row(self):
        row = super().next_row()
        if self.emitted == self.params.max_rows:
            self.floor = 4  # the rows stay in [1, 7], the saturated prefix stops short
        return row


class UsesColumn8(NaiveMatrixGenerator):
    def next_row(self):
        row = super().next_row()
        if self.emitted == self.params.max_rows:
            self.max_used_column = 8  # the rows stay in [1, 7], the state does not
        return row


@pytest.mark.parametrize("broken, reason", [
    (LeavesColumn5Open, "column 5 is incomplete: no reset follows row 7"),
    (UsesColumn8, "column 8 is used: no reset follows row 7"),
], ids=["incomplete-column", "column-above-s"])
def test_periodicity_without_reset_is_indeterminate(monkeypatch, broken, reason):
    # block 0 is right, but the generator is not at its reset after it:
    # nothing is decided past block 0
    monkeypatch.setattr(verify, "NaiveMatrixGenerator", broken)
    rep = verify_zero_blocks_and_periodicity(2, 3)
    assert [(c.name, c.status, c.witness) for c in rep.checks] == [
        (WINDOW, "indeterminate", {"reason": reason}), (SHIFT, "indeterminate", {"reason": reason})]


def test_one_row_pass_names_the_row_leaving_the_window(monkeypatch):
    # every harness over greedy rows draws them through the same pass: each
    # names row 3 in its own witness format.  The pass tests the window only
    # without the model; `general` reads it from its design check instead
    monkeypatch.setattr(verify, "NaiveMatrixGenerator", LeavesTheWindow)
    window = {"row": 3, "points": [1, 6, 8], "window": [1, 7]}
    assert verify_zero_blocks_and_periodicity(2, 3).checks[0] == Check(WINDOW, "fail", window)
    assert verify_proof_invariants(2).checks[0] == Check(
        "next-row points stay in the initial window", "fail", {"step": 2, "points": [1, 6, 8]})
    general = {c.name: c for c in verify_general_q(0, 2).checks}
    assert general["design: lines stay within [1, v]"] == Check(
        "design: lines stay within [1, v]", "fail", {"line": 3, "points": [1, 6, 8]})
    line = {"line": 3, "row": [1, 6, 8], "expected": [1, 6, 7]}
    assert general[IDENTITY.format(2, 2)].witness == line
    assert verify_theorem_q2(2).checks[1] == Check(IDENTITY.format(2, 2), "fail", line)


class CountsDraws(NaiveMatrixGenerator):
    draws = 0

    def next_row(self):
        CountsDraws.draws += 1
        return super().next_row()


class CountsDrawsLeavingTheWindow(CountsDraws, LeavesTheWindow):
    pass


@pytest.mark.parametrize("harness, args, rows", [
    (verify_theorem_q2, (2,), 7), (verify_theorem_q2, (5,), 651),
    (verify_zero_blocks_and_periodicity, (5, 3), 651), (verify_proof_invariants, (5,), 651),
    (verify_general_q, (0, 3), 35), (verify_general_q, (1, 2), 21),
], ids=["theorem-2", "theorem-5", "periodicity", "invariants", "general-q2", "general-q4"])
def test_a_pass_draws_each_row_once(monkeypatch, harness, args, rows):
    monkeypatch.setattr(verify, "NaiveMatrixGenerator", CountsDraws)
    monkeypatch.setattr(CountsDraws, "draws", 0)
    assert harness(*args).status == "pass"
    assert CountsDraws.draws == rows


def test_a_failing_theorem_draws_the_rows_at_most_twice(monkeypatch):
    # row 3 leaves its line: all d = 7 rows are drawn, and a pass that
    # names the witnesses may draw them once more, no further
    monkeypatch.setattr(verify, "NaiveMatrixGenerator", CountsDrawsLeavingTheWindow)
    monkeypatch.setattr(CountsDraws, "draws", 0)
    assert verify_theorem_q2(2).status == "fail"
    assert 7 <= CountsDraws.draws <= 2 * 7


# ---------------------------------------------------------------------------
# proof-invariant replay
# ---------------------------------------------------------------------------

def rescan_invariants(n):
    """The invariant replay that rescans every window point for Claim 1 at
    every step m = 0..d, read from the rows, as (checks, counts).  Reads
    expected_counts and NaiveMatrixGenerator through `verify`, so a patch
    there reaches it.  A point's partners are an open mask, bit y for each
    point y it shares one of the first m rows with."""
    s, d, r, _ = verify.expected_counts(n, 2)
    window_mask = ((1 << (s + 1)) - 1) & ~1  # bits 1..s
    gen = verify.NaiveMatrixGenerator(GenParams(k=3, r=r, max_rows=d))
    rows = [gen.next_row() for _ in range(d)]

    first = {"member": None, "claim1": None, "claim2": None, "claim3": None}
    degree, partners = {}, {}
    for m in range(d + 1):
        if first["claim1"] is None:
            for x in range(1, s + 1):
                if degree.get(x, 0) == r:
                    missing = window_mask & ~(1 << x) & ~partners[x]
                    if missing:
                        first["claim1"] = {"step": m, "complete_point": x,
                                           "not_connectable_to": (missing & -missing).bit_length() - 1}
                        break
        if m == d:
            break
        a, b, c = rows[m]
        if first["member"] is None and not 1 <= a < b < c <= s:
            first["member"] = {"step": m, "points": [a, b, c]}
        if first["claim2"] is None:
            need = ((1 << c) - 2) & window_mask & ~(1 << a) & ~(1 << b)
            missing = need & ~(partners.get(a, 0) | partners.get(b, 0))
            if missing:
                first["claim2"] = {"step": m, "next_row": [a, b, c],
                                   "point": (missing & -missing).bit_length() - 1}
        if first["claim3"] is None:
            need = ((1 << b) - 2) & window_mask & ~(1 << a)
            missing = need & ~partners.get(a, 0)
            if missing:
                first["claim3"] = {"step": m, "next_row": [a, b, c],
                                   "point": (missing & -missing).bit_length() - 1}
        for x in rows[m]:
            degree[x] = degree.get(x, 0) + 1
            partners[x] = partners.get(x, 0) | sum(1 << y for y in rows[m] if y != x)

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


def fano_with_rows_4_to_7(lines):
    # a relabelled Fano plane: point 4 first meets 2 in row 5
    return lines[:3] + [(2, 5, 6), (2, 4, 7), (3, 4, 6), (3, 5, 7)]


def row_replaced(i, row):
    return lambda lines: lines[:i - 1] + [row] + lines[i:]


def rows_swapped(i, j):
    def swap(lines):
        lines[i - 1], lines[j - 1] = lines[j - 1], lines[i - 1]
        return lines
    return swap


@pytest.mark.parametrize("n, mutate, failing, witness", [
    # Claim 1 alone: row 3 repeats the pair (1, 2), so 1 completes without 7
    (2, row_replaced(3, (1, 2, 6)), [1], {"step": 3, "complete_point": 1, "not_connectable_to": 7}),
    # Claim 3 alone: the rows are still a Fano plane, so Claim 1 holds
    (2, fano_with_rows_4_to_7, [3], {"step": 3, "next_row": [2, 5, 6], "point": 4}),
    # Claims 2 and 3 together: row 2 first, before 1 meets 2 and 3
    (3, rows_swapped(1, 2), [2, 3], {"step": 0, "next_row": [1, 4, 5], "point": 2}),
    # all three claims: row 1 leaves point 1 out, and 2, 3 and 4 open the rows
    (2, row_replaced(1, (2, 3, 4)), [1, 2, 3], {"step": 0, "next_row": [2, 3, 4], "point": 1}),
    # Claims 1 and 3: row 18, (3, 12, 15), meets 12 and 15 at 1 in place of 3
    (3, row_replaced(18, (1, 12, 15)), [1, 3], {"step": 18, "next_row": [3, 13, 14], "point": 12}),
    # the window alone: point 2 already meets every window point, and the
    # least point it misses, 8, lies below b = 9 but past s = 7
    (2, row_replaced(7, (2, 9, 10)), [0], {"step": 6, "points": [2, 9, 10]}),
], ids=["claim1", "claim3", "claims2-3", "claims1-2-3", "claims1-3", "window-edge"])
def test_proof_invariants_mutated_rows_match_rescan(replay_rows, n, mutate, failing, witness):
    # rows that break the claims, fed to the harness and to the rescan alike
    replay_rows(mutate(list(build_pg(n, 2).lines)))
    rep, _ = assert_matches_rescan(n)
    assert [i for i, c in enumerate(rep.checks) if c.status == "fail"] == failing
    assert rep.checks[failing[-1]].witness == witness


@st.composite
def mutated_lines(draw):
    """The lines of PG(3,2) or PG(4,2) with one row replaced by an
    ascending triple of [1, s + 2], or two rows swapped."""
    n = draw(st.sampled_from([3, 4]))
    lines = list(build_pg(n, 2).lines)
    s, d = verify.expected_counts(n, 2)[:2]
    i = draw(st.integers(1, d))
    if draw(st.booleans()):
        row = tuple(sorted(draw(st.sets(st.integers(1, s + 2), min_size=3, max_size=3))))
        return n, row_replaced(i, row)(lines)
    return n, rows_swapped(i, draw(st.integers(1, d)))(lines)


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_lines())
def test_proof_invariants_random_mutations_match_rescan(replay_rows, case):
    n, lines = case
    replay_rows(lines)
    assert_matches_rescan(n)


# ---------------------------------------------------------------------------
# memory: the q = 2 harnesses keep no rows
# ---------------------------------------------------------------------------

def _peak_bytes(harness, n):
    # one-time tables (the nim multiplier's) are built, and the interpreter's
    # tuple free list is filled (up to 128 KB of 3-tuples), outside the measurement
    harness(n)
    tracemalloc.start()
    try:
        assert harness(n).status == "pass"
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def verify_periodicity(n):
    return verify_zero_blocks_and_periodicity(n, 3)


@pytest.mark.parametrize("harness", [verify_theorem_q2, verify_proof_invariants, verify_periodicity])
def test_q2_harness_memory_is_not_per_row(harness):
    # d grows 16x from n = 5 to n = 7 (651 -> 10795 rows).  A stored row
    # costs about 280 bytes; the generator's pair masks, about s^2/8 bytes
    # (0.75 byte per row), are all that should grow.  The periodicity
    # harness generates block 0's d rows for its 3 blocks and keeps none.
    d5, d7 = verify.expected_counts(5, 2).b, verify.expected_counts(7, 2).b
    assert _peak_bytes(harness, 7) - _peak_bytes(harness, 5) < 8 * (d7 - d5)


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


def test_general_q_point_budget_indeterminate(replay_rows):
    # q = 256: the point bound is checked before any row is generated
    replay_rows(())
    rep = verify_general_q(3, 2)
    assert rep.status == "indeterminate"
    assert rep.counts["v"] == 65793
    assert [(c.name, c.status) for c in rep.checks] == [(IDENTITY.format(2, 256), "indeterminate")]
    assert rep.checks[0].witness == {"reason": "65793 points exceed the point bound 10000"}


def test_general_q_moved_point_names_its_row(replay_rows):
    lines = list(build_pg(2, 4).lines)
    row = lines[9]
    moved = next(x for x in range(1, 22) if x not in row)
    lines[9] = tuple(sorted(row[:-1] + (moved,)))
    replay_rows(lines)
    rep = verify_general_q(1, 2)
    assert rep.status == "fail"
    by_name = {c.name: c for c in rep.checks}
    assert by_name[IDENTITY.format(2, 4)].witness == {
        "line": 10, "row": list(lines[9]), "expected": list(row)}
    assert by_name["design: every point pair is covered exactly 1 time(s)"].status == "fail"


def test_general_q_repeated_row_fails_the_design(replay_rows, capsys):
    # row 10 repeats row 9, so line 10 is missing: a failed verdict, with
    # the smallest pair covered other than once, not a refused input
    lines = list(build_pg(2, 4).lines)
    lines[9] = lines[8]
    replay_rows(lines)
    rep = verify_general_q(1, 2)
    assert rep.status == "fail"
    by_name = {c.name: c for c in rep.checks}
    covers = {}
    for line in lines:
        for pair in combinations(line, 2):
            covers[pair] = covers.get(pair, 0) + 1
    pair = min(p for p in combinations(range(1, 22), 2) if covers.get(p, 0) != 1)
    assert by_name["design: every point pair is covered exactly 1 time(s)"].witness == {
        "pair": list(pair), "count": covers.get(pair, 0)}
    assert by_name[IDENTITY.format(2, 4)].witness["line"] == 10
    assert main(["verify", "general", "--a", "1", "--n", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


def test_general_q_row_leaving_the_window_names_the_row(replay_rows):
    lines = list(build_pg(2, 4).lines)
    lines[20] = lines[20][:-1] + (22,)  # PG(2,4) has 21 points
    replay_rows(lines)
    by_name = {c.name: c for c in verify_general_q(1, 2).checks}
    # the design check is the report's one window check
    assert [name for name in by_name if "within" in name] == ["design: lines stay within [1, v]"]
    assert by_name["design: lines stay within [1, v]"].witness == {"line": 21, "points": list(lines[20])}


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

def _reference_counterexample(bound, holds):
    """The first triple of [0, bound)^3, in lexicographic order, that holds
    rejects, by a scan of every triple; holds takes a scalar a and arrays b
    (a column) and c (a row)."""
    xs = np.arange(bound, dtype=np.int64)
    for a in range(bound):
        ok = holds(a, xs[:, None], xs[None, :])
        if not ok.all():
            return [a, *(int(x) for x in np.argwhere(~ok)[0])]
    return None


def _lemma(a, b, c):
    # the greediness lemma, written apart from nimber.greediness_lemma_holds
    return (c >= (a ^ b)) | ((a ^ c) < b) | ((b ^ c) < a)


def _sign_states(width):
    """{state: least triple} over [0, 2^width)^3, with state the signs of
    c - a^b, a^c - b and b^c - a, compared as whole integers."""
    a, b, c = (x.ravel() for x in np.indices((1 << width,) * 3))
    signs = np.stack([np.sign(c - (a ^ b)), np.sign((a ^ c) - b), np.sign((b ^ c) - a)], axis=1)
    least = {}
    for i, state in enumerate(map(tuple, signs.tolist())):  # lexicographic order
        least.setdefault(state, (int(a[i]), int(b[i]), int(c[i])))
    return least


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_lemma_states_are_the_sign_states_of_every_triple(width):
    walked = verify._lemma_states()
    assert len(walked) == 5
    assert _sign_states(width) == walked  # the same states, each with the same least triple
    for state, (a, b, c) in walked.items():
        signs = (c - (a ^ b), (a ^ c) - b, (b ^ c) - a)
        assert tuple((x > 0) - (x < 0) for x in signs) == state


def test_lemma_exhaustive_small_bounds():
    assert lemma_exhaustive(1).status == "pass"
    rep = lemma_exhaustive(4)
    assert rep.status == "pass"
    assert rep.counts == {"bound": 4, "triples": 64, "states": 5}
    assert [c.name for c in rep.checks] == ["no counterexample at any width"]


def test_lemma_exhaustive_agrees_with_the_reference_scan():
    assert _reference_counterexample(64, _lemma) is None
    assert lemma_exhaustive(64).status == "pass"


@pytest.mark.parametrize("mutant, triple", [
    (lambda a, b, c: (c > (a ^ b)) | ((a ^ c) < b) | ((b ^ c) < a), [0, 0, 0]),
    (lambda a, b, c: (c >= (a ^ b)) | ((a ^ c) < b), [1, 0, 0]),
], ids=["premise c <= a^b", "no b^c < a"])
def test_lemma_exhaustive_fails_on_a_mutated_predicate(monkeypatch, mutant, triple):
    monkeypatch.setattr(verify, "greediness_lemma_holds", mutant)
    rep = lemma_exhaustive(512)
    assert rep.status == "fail"
    assert rep.checks[0].witness == {"triple": triple}
    assert not mutant(*triple)
    assert _reference_counterexample(64, mutant) == triple


def test_lemma_exhaustive_guards():
    with pytest.raises(InvalidParameterError):
        lemma_exhaustive(0)
    for bound in (513, 2 ** 63):
        assert lemma_exhaustive(bound).status == "pass"
    for bound in (2 ** 63 + 1, 10 ** 1500):
        with pytest.raises(InputRangeError):
            lemma_exhaustive(bound)
