"""Projective models, their reference construction, and design/Pasch checks."""

import json
from itertools import combinations, product

import pytest

from naivemat import verify
from naivemat.cli import main
from naivemat.errors import (InvalidParameterError, PreconditionError,
                             ResourceLimitError)
from naivemat.geometry import (CanonicalGeometry, IncidenceStructure,
                               build_pg, check_design,
                               check_veblen_young, expected_counts,
                               normalize_point)
from naivemat.greedy import Row
from naivemat.nimber import FermatField

FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6))


def reference_pg_lines(n, q):
    """O(v^2) reference for build_pg: close each uncovered point pair P, R
    under P + lam*R, normalize, and number the points by ascending base-q
    value of their normalized vectors."""
    gf = FermatField(q)
    points = sorted({normalize_point(gf, c) for c in product(range(q), repeat=n + 1) if any(c)},
                    key=lambda p: sum(c * q ** (n - i) for i, c in enumerate(p)))
    rank = {p: i + 1 for i, p in enumerate(points)}
    lines = set()
    covered = set()
    for p, rp in combinations(points, 2):
        if (rank[p], rank[rp]) in covered:
            continue
        members = {rank[rp]}
        for lam in range(q):
            members.add(rank[normalize_point(gf, [pc ^ gf.mul(lam, rc) for pc, rc in zip(p, rp)])])
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
    assert expected_counts(2, 2) == (7, 7, 3, 3, 7)
    assert expected_counts(5, 2).d == 63 * 31 // 3
    assert expected_counts(3, 4) == (85, 357, 21, 5, 357)
    assert expected_counts(2, 16) == (273, 273, 17, 17, 273)
    with pytest.raises(InvalidParameterError):
        expected_counts(0, 2)
    with pytest.raises(InvalidParameterError):
        expected_counts(2, 6)


def test_counts_identity():
    for n in range(1, 6):
        for q in (2, 4, 16):
            v, b, r, k, _ = expected_counts(n, q)
            assert b * k == v * r


def test_q2_line_count_equals_2d_subspace_count():
    for n in range(1, 5):
        assert expected_counts(n, 2).d == count_2d_subspaces_gf2(n + 1)


def test_normalize_point():
    gf = FermatField(4)
    assert normalize_point(gf, (0, 2, 3)) == (0, 1, gf.mul(gf.inv(2), 3))
    assert normalize_point(gf, (1, 2, 3)) == (1, 2, 3)
    with pytest.raises(InvalidParameterError):
        normalize_point(gf, (0, 0, 0))


def test_build_pg_small():
    g = build_pg(1, 2)
    assert g.v == 3 and g.b == 1 and g.lines == ((1, 2, 3),)
    g = build_pg(2, 2)
    assert g.v == 7 and g.b == 7
    g = build_pg(2, 4)
    assert g.v == 21 and g.b == 21
    assert all(len(line) == 5 for line in g.lines)


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 4), (3, 4), (2, 16)])
def test_build_pg_matches_reference(n, q):
    points, lines = reference_pg_lines(n, q)
    g = build_pg(n, q)
    assert g.points == tuple(points)
    assert g.lines == tuple(lines)


def test_build_pg_points_are_canonical():
    g = build_pg(2, 4)
    gf = FermatField(4)
    for p in g.points:
        assert normalize_point(gf, p) == p
    assert len(set(g.points)) == g.v


def test_build_pg_satisfies_design_and_pasch():
    for n, q in [(1, 2), (2, 2), (3, 2), (2, 4)]:
        g = build_pg(n, q)
        v, b, r, k, _ = expected_counts(n, q)
        s = g.as_incidence()
        assert check_design(s, v, k, r, 1).status == "pass"
        assert check_veblen_young(s).status == "pass"


def test_build_pg_errors():
    with pytest.raises(InvalidParameterError):
        build_pg(2, 6)
    with pytest.raises(ResourceLimitError):
        build_pg(2, 16, point_bound=100)


def xor_triples(n):
    """The nim-triple model of PG(n, 2): every {a, b, a^b} with
    0 < a < b < a^b < 2^(n+1), lex-sorted."""
    top = 1 << (n + 1)
    return sorted((a, b, a ^ b) for a in range(1, top) for b in range(a + 1, top) if a ^ b > b)


def test_build_pg2_nim():
    # the nim model of PG(n, 2) is build_pg at q = 2
    assert build_pg(1, 2).lines == ((1, 2, 3),)
    assert build_pg(2, 2).lines == FANO_TRIPLES
    assert build_pg(3, 2).b == 35
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


def test_incidence_structure_validation():
    with pytest.raises(InvalidParameterError):
        IncidenceStructure(3, ((1, 2, 4),))          # outside window
    with pytest.raises(InvalidParameterError):
        IncidenceStructure(3, ((1, 2), (2, 1)))      # repeated line
    with pytest.raises(InvalidParameterError):
        IncidenceStructure(3, ((1, 1, 2),))          # repeated point
    s = IncidenceStructure(5, ((3, 1), (2, 4)))
    assert s.lines == ((1, 3), (2, 4))               # sorted on the way in


# ---------------------------------------------------------------------------
# design check
# ---------------------------------------------------------------------------

def test_check_design_fano_passes():
    s = IncidenceStructure(7, FANO_TRIPLES)
    rep = check_design(s, 7, 3, 3, 1)
    assert rep.status == "pass"
    assert rep.counts["lines"] == 7


def test_check_design_fano_minus_line_fails():
    s = IncidenceStructure(7, FANO_TRIPLES[:-1])
    rep = check_design(s, 7, 3, 3, 1)
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
    s = IncidenceStructure(3, ((1, 2, 3),))
    assert check_design(s, 3, 3, 1, 1).status == "pass"


def test_check_design_wrong_line_size():
    s = IncidenceStructure(4, ((1, 2, 3), (1, 4)))
    rep = check_design(s, 4, 3, 2, 1)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["every line has k points"].status == "fail"
    assert by_name["every line has k points"].witness == {"line": 2, "size": 2}


# ---------------------------------------------------------------------------
# Pasch closure
# ---------------------------------------------------------------------------

def test_veblen_young_fano_passes_by_line_pair_meet():
    rep = check_veblen_young(IncidenceStructure(7, FANO_TRIPLES))
    assert rep.status == "pass"
    assert rep.counts["all_line_pairs_meet"] == 1


def test_veblen_young_single_line_vacuous():
    assert check_veblen_young(IncidenceStructure(3, ((1, 2, 3),))).status == "pass"


def test_veblen_young_triangle_scan_on_pg32():
    rep = check_veblen_young(build_pg(3, 2).as_incidence())
    assert rep.status == "pass"
    assert rep.counts["all_line_pairs_meet"] == 0
    assert rep.counts["triangles"] > 0


def test_veblen_young_broken_fano_fails():
    # replacing {3,5,6} with {3,5} keeps pairs covered at most once but opens
    # a Pasch configuration; the first one in scan order was worked by hand
    broken = IncidenceStructure(7, FANO_TRIPLES[:-1] + ((3, 5),))
    rep = check_veblen_young(broken)
    assert rep.status == "fail"
    w = rep.checks[0].witness
    assert w == {"triangle": [1, 2, 4], "apex": 1, "meet_ab": 3, "meet_ac": 5,
                 "transversal": [3, 5], "side": [2, 4, 6]}
    # the witness is a genuine violation: transversal meets sides 1-2 and 1-4
    # away from the vertices yet misses the side through 2 and 4
    assert set(w["transversal"]) & set(w["side"]) == set()


def test_veblen_young_precondition():
    with pytest.raises(PreconditionError):
        check_veblen_young(IncidenceStructure(4, ((1, 2, 3), (1, 2, 4))))


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
    return IncidenceStructure(15, tuple(l for l in lines if l not in old) + new)


def test_pasch_switch_is_still_a_design():
    assert check_design(pasch_switched_sts15(), 15, 3, 7, 1).status == "pass"


def test_pasch_switch_fails_veblen_young():
    rep = check_veblen_young(pasch_switched_sts15())
    assert rep.status == "fail"
    w = rep.checks[0].witness
    # frozen first witness: line(1,2)={1,2,4} now, line(1,8)={1,8,9}, and the
    # transversal through 4 and 9 misses the side through 2 and 8
    assert w == {"triangle": [1, 2, 8], "apex": 1, "meet_ab": 4, "meet_ac": 9,
                 "transversal": [4, 9, 13], "side": [2, 8, 10]}
    assert set(w["transversal"]) & set(w["side"]) == set()


def test_pasch_switch_not_isomorphic_to_pg32(monkeypatch, capsys):
    # fed to the general harness as the rows for PG(3,2): the identity names
    # the first changed line, and the failed Pasch closure, an isomorphism
    # invariant that PG(3,2) has, shows no relabelling matches either
    lines = sorted(pasch_switched_sts15().lines)
    monkeypatch.setattr(verify, "generate",
                        lambda params: [Row(i + 1, line) for i, line in enumerate(lines)])
    rep = verify.verify_general_q(0, 3)
    assert rep.status == "fail"
    by_name = {c.name: c for c in rep.checks}
    # PG(3,2)'s first line is {1,2,3}; the switch replaced it by {1,2,4}
    assert by_name["rows equal the lines of PG(3,2)"].witness == {
        "line": 1, "row": [1, 2, 4], "expected": [1, 2, 3]}
    assert all(c.status == "pass" for name, c in by_name.items() if name.startswith("design: "))
    assert by_name["veblen-young: pasch closure"].status == "fail"

    assert main(["verify", "general", "--a", "0", "--n", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"
