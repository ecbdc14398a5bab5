"""Projective models, their reference construction, and the design check."""

import json
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naivemat import geometry, verify
from naivemat.cli import main
from naivemat.errors import InvalidParameterError, ResourceLimitError
from naivemat.geometry import build_pg, check_design_lines, expected_counts
from naivemat.nimber import nim_mul

FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6))


def normalize_point(q, coords):
    """Scale so the first nonzero coordinate is 1 (canonical representative);
    the inverse in GF(q) is found by search, not by the package's power."""
    coords = tuple(coords)
    for c in coords:
        if c:
            lam = next(y for y in range(1, q) if nim_mul(c, y) == 1)
            return tuple(nim_mul(lam, x) for x in coords)
    raise InvalidParameterError("the zero vector is not a projective point")


def reference_pg_lines(n, q):
    """O(v^2) reference for build_pg: close each uncovered point pair P, R
    under P + lam*R, normalize, and number the points by ascending base-q
    value of their normalized vectors."""
    points = sorted({normalize_point(q, c) for c in product(range(q), repeat=n + 1) if any(c)},
                    key=lambda p: sum(c * q ** (n - i) for i, c in enumerate(p)))
    rank = {p: i + 1 for i, p in enumerate(points)}
    lines = set()
    covered = set()
    for p, rp in combinations(points, 2):
        if (rank[p], rank[rp]) in covered:
            continue
        members = {rank[rp]}
        for lam in range(q):
            members.add(rank[normalize_point(q, [pc ^ nim_mul(lam, rc) for pc, rc in zip(p, rp)])])
        line = tuple(sorted(members))
        lines.add(line)
        covered.update(combinations(line, 2))
    return points, sorted(lines)


def count_2d_subspaces_gf2(dim):
    """Independent span enumeration over nonzero vectors of GF(2)^dim."""
    spans = set()
    for x in range(1, 1 << dim):
        for y in range(x + 1, 1 << dim):
            spans.add(frozenset((x, y, x ^ y)))
    return len(spans)


# ---------------------------------------------------------------------------
# counts and construction
# ---------------------------------------------------------------------------

def test_expected_counts():
    assert expected_counts(2, 2) == (7, 7, 3, 3)
    assert expected_counts(5, 2).b == 63 * 31 // 3
    assert expected_counts(3, 4) == (85, 357, 21, 5)
    assert expected_counts(2, 16) == (273, 273, 17, 17)
    # v has n*log2(q) + 1 bits; past 63 of them only k is built
    assert expected_counts(62, 2).v == (1 << 63) - 1
    assert expected_counts(63, 2) == (None, None, None, 3)
    assert expected_counts(2, 1 << 32) == (None, None, None, (1 << 32) + 1)
    assert expected_counts(10 ** 9, 2).k == 3
    with pytest.raises(InvalidParameterError):
        expected_counts(0, 2)
    with pytest.raises(InvalidParameterError):
        expected_counts(2, 6)


def test_counts_identity():
    for n in range(1, 6):
        for q in (2, 4, 16):
            v, b, r, k = expected_counts(n, q)
            assert b * k == v * r


def test_q2_line_count_equals_2d_subspace_count():
    for n in range(1, 5):
        assert expected_counts(n, 2).b == count_2d_subspaces_gf2(n + 1)


def test_normalize_point():
    # in GF(4), 2 (x) 3 = 1 and 3 (x) 3 = 2
    assert normalize_point(4, (0, 2, 3)) == (0, 1, 2)
    assert normalize_point(4, (1, 2, 3)) == (1, 2, 3)
    with pytest.raises(InvalidParameterError):
        normalize_point(4, (0, 0, 0))


def test_build_pg_small():
    g = build_pg(1, 2)
    assert g.v == 3 and len(g.lines) == 1 and g.lines == ((1, 2, 3),)
    g = build_pg(2, 2)
    assert g.v == 7 and len(g.lines) == 7
    g = build_pg(2, 4)
    assert g.v == 21 and len(g.lines) == 21
    assert all(len(line) == 5 for line in g.lines)


# (4, 4) has blocks with several mid values (coordinates between the pivots)
# and several low ones
@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 4), (3, 4), (4, 4), (2, 16)])
def test_build_pg_matches_reference(n, q):
    points, lines = reference_pg_lines(n, q)
    g = build_pg(n, q)
    assert g.v == len(points)
    assert g.lines == tuple(lines)


@pytest.mark.parametrize("n", [6, 9])
def test_pg_lines_holds_one_block(n):
    # a block holds under (q + 1) q^(n-1) ints: the points of its q^(n-1)
    # lines, 40 bytes each in their lists, beside the scaled-tail tables of
    # the same size.  The b lines (174,251 at n = 9) would take over 11 MB.
    q = 2
    tracemalloc.start()
    try:
        lines = sum(1 for _ in geometry.pg_lines(n, q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == expected_counts(n, q).b
    assert peak < 128 * (q + 1) * q ** (n - 1)


def test_build_pg_satisfies_design():
    for n, q in [(1, 2), (2, 2), (3, 2), (2, 4)]:
        g = build_pg(n, q)
        v, b, r, k = expected_counts(n, q)
        rep = check_design_lines(iter(g.lines), v, k, r)  # read once
        assert rep.status == "pass" and rep.counts["lines"] == b


def test_build_pg_errors(monkeypatch):
    with pytest.raises(InvalidParameterError):
        build_pg(2, 6)
    monkeypatch.setattr(geometry, "DEFAULT_POINT_BOUND", 100)  # read at call time
    with pytest.raises(ResourceLimitError):
        build_pg(2, 16)


def xor_triples(n):
    """The nim-triple model of PG(n, 2): every {a, b, a^b} with
    0 < a < b < a^b < 2^(n+1), lex-sorted."""
    top = 1 << (n + 1)
    return sorted((a, b, a ^ b) for a in range(1, top) for b in range(a + 1, top) if a ^ b > b)


def test_build_pg2_nim():
    # the nim model of PG(n, 2) is build_pg at q = 2
    assert build_pg(1, 2).lines == ((1, 2, 3),)
    assert build_pg(2, 2).lines == FANO_TRIPLES
    assert len(build_pg(3, 2).lines) == 35
    assert build_pg(3, 2).v == 15
    with pytest.raises(InvalidParameterError):
        build_pg(0, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_pg2_models_isomorphic(n):
    # at q = 2 a point's rank is its vector read in binary, so the ranked
    # model is the nim-triple model itself: the identity is the isomorphism
    assert list(build_pg(n, 2).lines) == xor_triples(n)


def test_nim_model_lines_are_xor_closed():
    for n in (1, 2, 3, 4):
        for a, b, c in build_pg(n, 2).lines:
            assert a < b < c and a ^ b ^ c == 0


# ---------------------------------------------------------------------------
# design check
# ---------------------------------------------------------------------------

def test_check_design_fano_passes():
    rep = check_design_lines(FANO_TRIPLES, 7, 3, 3)
    assert rep.status == "pass"
    assert rep.counts["lines"] == 7


def test_check_design_fano_minus_line_fails():
    rep = check_design_lines(FANO_TRIPLES[:-1], 7, 3, 3)
    assert rep.status == "fail"
    by_name = {c.name: c for c in rep.checks}
    assert by_name["b*k = v*r"].status == "fail"
    pair_check = by_name["every point pair is covered exactly 1 time(s)"]
    assert pair_check.status == "fail"
    assert pair_check.witness == {"pair": [3, 5], "count": 0}
    # independent recount: dropping {3,5,6} uncovers exactly its 3 pairs
    covered = {p for line in FANO_TRIPLES[:-1] for p in combinations(line, 2)}
    missing = [p for p in combinations(range(1, 8), 2) if p not in covered]
    assert missing == [(3, 5), (3, 6), (5, 6)]


def test_check_design_single_line():
    assert check_design_lines(((1, 2, 3),), 3, 3, 1).status == "pass"


def dict_check_design(lines, v, k, r):
    """The design conditions counted with a dict keyed by pair, as
    (name, status, witness) triples; the reference for check_design_lines."""
    checks = []

    def add(name, witness):
        checks.append((name, "pass" if witness is None else "fail", witness))

    b = len(lines)
    add("b*k = v*r", None if b * k == v * r else {"b": b, "k": k, "v": v, "r": r})
    bad = next((i for i, line in enumerate(lines) if line[-1] > v or line[0] < 1), None)
    add("lines stay within [1, v]", None if bad is None else {"line": bad + 1, "points": list(lines[bad])})
    bad = next((i for i, line in enumerate(lines) if len(line) != k), None)
    add("every line has k points", None if bad is None else {"line": bad + 1, "size": len(lines[bad])})
    deg = {}
    pairs = {}
    for line in lines:
        for p in line:
            deg[p] = deg.get(p, 0) + 1
        for pair in combinations(line, 2):
            pairs[pair] = pairs.get(pair, 0) + 1
    add("every point has degree r",
        next(({"point": p, "degree": deg.get(p, 0)} for p in range(1, v + 1) if deg.get(p, 0) != r), None))
    add("every point pair is covered exactly 1 time(s)",
        next(({"pair": list(pair), "count": pairs.get(pair, 0)}
              for pair in combinations(range(1, v + 1), 2) if pairs.get(pair, 0) != 1), None))
    return checks


def assert_design_matches_dict(lines, v, k, r):
    """check_design_lines agrees with the reference on the lines held in a
    tuple and on a one-shot iterator over them; returns the checks."""
    want = dict_check_design(lines, v, k, r)
    for given_lines in (lines, iter(lines)):
        rep = check_design_lines(given_lines, v, k, r)
        assert [(c.name, c.status, c.witness) for c in rep.checks] == want
        assert rep.subject == f"design 2-({v},{k},1) with r={r}"
        assert rep.counts == {"v": v, "k": k, "r": r, "lambda": 1, "lines": len(lines)}
    return want


@pytest.mark.parametrize("lines,window,v,k,r,lam,failing", [
    (FANO_TRIPLES, 7, 7, 3, 3, 1, None),
    (FANO_TRIPLES[:-1], 7, 7, 3, 3, 1, "missing pair"),
    (FANO_TRIPLES + ((1, 2, 4),), 7, 7, 3, 3, 1, "doubled pair"),
    (FANO_TRIPLES[:-1] + ((3, 5, 8),), 8, 7, 3, 3, 1, "point outside the window"),
    (FANO_TRIPLES[:-1] + ((3, 5), (6, 9)), 9, 7, 3, 3, 1, "mixed line sizes"),
    # (2, 3) is doubled first, then (1, 2) is covered three times: witness count 3
    (((2, 3, 4), (2, 3, 5), (1, 2, 6), (1, 2, 7), (1, 2, 3)), 7, 7, 3, 3, 1, "tripled below a double"),
    (((2, 3, 4), (2, 3, 5)), 5, 5, 3, 2, 1, "uncovered (1, 2) below the doubled (2, 3)"),
    (((1, 2, 3), (1, 2, 4)), 4, 4, 3, 2, 1, "doubled (1, 2) below the uncovered (3, 4)"),
    (((1, 2, 3, 4, 5),), 6, 6, 5, 1, 1, "uncovered last point"),
    (((2, 3, 4), (3, 4, 5), (1, 2, 5)), 5, 5, 3, 2, 1, "uncovered (1, 3) below the doubled (3, 4)"),
    (((1, 2, 4), (1, 3, 4), (1, 3, 5)), 5, 5, 3, 2, 1, "doubled (1, 3) below the uncovered (2, 3)"),
    (((1, 2, 3), (1, 2, 9), (3, 7, 12)), 12, 3, 3, 2, 1, "points above v make no covers"),
    (build_pg(1, 4).lines, 5, 5, 5, 1, 1, None),
    (build_pg(1, 16).lines, 17, 17, 17, 1, 1, None),
])
def test_check_design_matches_dict_oracle(lines, window, v, k, r, lam, failing):
    # window: the smallest [1, window] holding [1, v] and every line; lam: the
    # design's lambda, as the pair check names it
    got = assert_design_matches_dict(lines, v, k, r)
    assert all(status == "pass" for _, status, _ in got) == (failing is None)
    assert (got[1][1] == "pass") == (window == v)
    assert got[4][0] == f"every point pair is covered exactly {lam} time(s)"


def test_check_design_ignores_points_below_1():
    # the window check names line 1; the covers and degrees ignore 0 and -1
    got = assert_design_matches_dict(((0, 1, 2), (1, 2, 3), (-1, 2, 3)), 3, 3, 2)
    assert got[1][2] == {"line": 1, "points": [0, 1, 2]}
    assert got[4][2] == {"pair": [1, 2], "count": 2}


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 12).flatmap(lambda w: st.tuples(
    st.sets(st.frozensets(st.integers(1, w), min_size=1, max_size=min(w, 5)), max_size=25),
    st.integers(1, w + 2), st.integers(1, 5), st.integers(1, 6))))
def test_check_design_matches_dict_oracle_random(case):
    lines, v, k, r = case
    assert_design_matches_dict(tuple(tuple(sorted(line)) for line in lines), v, k, r)


def test_check_design_lines_memory_is_the_cover_bitset():
    # PG(8,2): v = 511 points, 43,435 lines.  The covers are v^2/16 bytes
    # (16 KB) of ints; C(v, 2) counts would be about 1 MB
    lines = build_pg(8, 2).lines
    check_design_lines(lines, 511, 3, 255)
    tracemalloc.start()
    try:
        assert check_design_lines(lines, 511, 3, 255).status == "pass"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_check_design_wrong_line_size():
    rep = check_design_lines(((1, 2, 3), (1, 4)), 4, 3, 2)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["every line has k points"].status == "fail"
    assert by_name["every line has k points"].witness == {"line": 2, "size": 2}


# ---------------------------------------------------------------------------
# a Steiner system that is not a projective space
# ---------------------------------------------------------------------------

def pasch_switched_sts15():
    """Trade one Pasch quad of PG(3,2) for its opposite: the four new triples
    cover the same twelve pairs, so the result is again a 2-(15,3,1) design,
    but classically a non-projective one."""
    lines = build_pg(3, 2).lines
    old = {(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)}
    new = ((1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6))
    assert old <= set(lines)
    return tuple(l for l in lines if l not in old) + new


def test_pasch_switch_is_still_a_design():
    assert check_design_lines(pasch_switched_sts15(), 15, 3, 7).status == "pass"


def test_pasch_switch_fails_the_pg32_identity(replay_rows, capsys):
    # fed to the general harness as the rows for PG(3,2): every design check
    # passes, and the identity names the first changed line
    lines = sorted(pasch_switched_sts15())
    replay_rows(lines)
    rep = verify.verify_general_q(0, 3)
    assert rep.status == "fail"
    by_name = {c.name: c for c in rep.checks}
    # PG(3,2)'s first line is {1,2,3}; the switch replaced it by {1,2,4}
    assert by_name["rows equal the lines of PG(3,2)"].witness == {
        "line": 1, "row": [1, 2, 4], "expected": [1, 2, 3]}
    assert all(c.status == "pass" for name, c in by_name.items() if name.startswith("design: "))

    assert main(["verify", "general", "--a", "0", "--n", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"
