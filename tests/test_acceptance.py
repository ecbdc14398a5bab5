"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s or -rP to see them)
and asserts the criterion at its stated tolerance; tolerances are exact
unless a runtime bound is quoted.
"""

import json
import time

import numpy as np

from naivemat.cli import main
from naivemat.geometry import build_pg, expected_counts
from naivemat.greedy import GenParams, generate
from naivemat.nimber import field_check, nim_mul
from naivemat.verify import (lemma_exhaustive, verify_general_q,
                             verify_proof_invariants, verify_theorem_q2,
                             verify_zero_blocks_and_periodicity)

from test_geometry import count_2d_subspaces_gf2
from test_greedy import lexmin_admissible_row
from test_nimber import nim_mul_table

FANO_CSV = "1,2,3\n1,4,5\n1,6,7\n2,4,6\n2,5,7\n3,4,7\n3,5,6\n"


def _criterion(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_theorem_reproduction():
    t0 = time.perf_counter()
    results = [verify_theorem_q2(n) for n in range(1, 9)]
    elapsed = time.perf_counter() - t0
    ok = all(rep.status == "pass" for rep in results)
    ok = ok and results[-1].counts["d"] == 43435 and results[-1].counts["s"] == 511
    ok = ok and elapsed < 5.0
    _criterion(1, "theorem reproduction q=2, n=1..8", ok, f"{elapsed:.2f} s")


def test_criterion_2_fano_ground_truth(capsys):
    code = main(["generate", "--k", "3", "--r", "3", "--rows", "7"])
    out = capsys.readouterr().out
    with capsys.disabled():
        _criterion(2, "Fano ground truth, byte-exact CSV", code == 0 and out == FANO_CSV)


def test_criterion_3_zero_blocks_and_periodicity():
    t0 = time.perf_counter()
    reps = [verify_zero_blocks_and_periodicity(n, 3) for n in range(1, 5)]
    elapsed = time.perf_counter() - t0
    ok = all(rep.status == "pass" for rep in reps) and elapsed < 2.0
    _criterion(3, "zero blocks and periodicity, n=1..4, 3 blocks", ok, f"{elapsed:.2f} s")


def test_criterion_4_greediness_lemma_exhaustive():
    t0 = time.perf_counter()
    rep = lemma_exhaustive(512)
    elapsed = time.perf_counter() - t0
    ok = rep.status == "pass" and rep.counts["triples"] == 512 ** 3 and rep.counts["states"] == 5
    ok = ok and elapsed < 0.1
    _criterion(4, "greediness lemma decided for every width, bound 512", ok, f"{elapsed:.3f} s")


def test_criterion_5_nimber_fields():
    ok = all(field_check(q, mode="exhaustive").status == "pass" for q in (2, 4, 16))
    sampled = field_check(256, mode="sampled", samples=10 ** 6)
    ok = ok and sampled.status == "pass" and sampled.counts["triples"] >= 10 ** 6
    table = nim_mul_table(256)
    split = np.array([[nim_mul(a, b) for b in range(256)] for a in range(256)])
    agree = bool((table == split).all())
    _criterion(5, "field checks and mex/split agreement on [0,256)^2", ok and agree)


def test_criterion_6_proof_invariant_replay():
    t0 = time.perf_counter()
    reps = [verify_proof_invariants(n) for n in range(1, 6)]
    elapsed = time.perf_counter() - t0
    ok = all(rep.status == "pass" for rep in reps) and elapsed < 3.0
    _criterion(6, "proof-invariant replay, n=1..5", ok, f"{elapsed:.2f} s")


def test_criterion_7_general_q_experiments():
    details = []
    ok = True
    for a, n in [(1, 2), (1, 3), (2, 2)]:
        t0 = time.perf_counter()
        rep = verify_general_q(a, n)
        elapsed = time.perf_counter() - t0
        ok = ok and rep.status == "pass" and elapsed < 30.0
        details.append(f"q={rep.counts['q']} n={n}: {rep.status} {elapsed:.2f} s")
        if rep.status != "pass":
            print("  findings:", json.dumps([c.__dict__ for c in rep.checks if c.status != "pass"]))
    _criterion(7, "general-q experimental confirmation", ok, "; ".join(details))


def test_criterion_8_oracle_equivalence():
    ok = True
    for k, r in [(3, 1), (3, 2), (3, 3), (4, 2)]:
        rows = list(generate(GenParams(k, r, 10)))
        prev = []
        for row in rows:
            bound = max((p for rr in prev for p in rr), default=0) + k
            if row != lexmin_admissible_row(prev, k, r, bound):
                ok = False
                break
            prev.append(row)
    _criterion(8, "element-greedy equals the lex-min subset oracle", ok)


def test_criterion_9_parameter_identities():
    ok = True
    for q in (2, 4, 16):
        for n in range(1, 6):
            v, b, r, k = expected_counts(n, q)
            ok = ok and b * k == v * r
    for n in range(1, 5):
        d = expected_counts(n, 2).b
        ok = ok and d == count_2d_subspaces_gf2(n + 1)
        ok = ok and d == len(build_pg(n, 2).lines)
    _criterion(9, "b*k = v*r and d equals the 2-subspace count", ok)
