"""Verification harnesses and the report type."""

import json

import pytest

from naivemat import verify
from naivemat.errors import InputRangeError, InvalidParameterError, ResourceLimitError
from naivemat.geometry import build_pg
from naivemat.greedy import GenParams, Row, generate
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
    monkeypatch.setattr(verify, "generate",
                        lambda params: [Row(i + 1, line) for i, line in enumerate(lines)])
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
    rows = generate(GenParams(3, 1, 2))
    assert rows[1].points == tuple(p + 3 for p in rows[0].points)


@pytest.mark.parametrize("n,blocks", [(2, 3), (3, 2), (4, 3)])
def test_periodicity_families(n, blocks):
    rep = verify_zero_blocks_and_periodicity(n, blocks)
    assert rep.status == "pass"
    assert rep.counts["rows"] == blocks * rep.counts["d"]


def test_periodicity_guards():
    with pytest.raises(InvalidParameterError):
        verify_zero_blocks_and_periodicity(2, 0)


# ---------------------------------------------------------------------------
# proof-invariant replay
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_proof_invariants(n):
    rep = verify_proof_invariants(n)
    assert rep.status == "pass"
    assert rep.counts["steps"] == rep.counts["d"]


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
    monkeypatch.setattr(verify, "generate",
                        lambda params: [Row(i + 1, line) for i, line in enumerate(lines)])
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
