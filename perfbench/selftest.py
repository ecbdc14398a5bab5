"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs the smallest case of each workload in both modes and checks that every
metric BENCHMARK.json names comes out with its unit; checks that the
known-answer checker accepts real outputs and rejects tampered ones, and
that each outcome class is assigned; and checks that the benchmark refuses
to run in a directory holding only itself. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
from cases import WORKLOADS, case, check_output, classify

WORK = run.OUT / "selftest"


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload, cases in WORKLOADS.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.run(workload, seed=0, seconds=0, trace=trace, indices=[0])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want and all(isinstance(m["value"], (int, float))
                                       for m in result["metrics"].values()),
                   f"{workload} trace={int(trace)}: {key} metrics and units ({cases[0].name})")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={int(trace)}: smallest case decided and correct")


def tampered(lines: list[str], i: int, j: int) -> list[str]:
    lines = list(lines)
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def check_known_answers() -> None:
    runner = run.Runner(WORK, time.perf_counter())
    samples = [case("generate", k=3, r=1, rows=50),
               case("generate", k=3, r=7, rows=70),
               case("generate", k=3, r=3, rows=14, format="matrix-pbm"),
               case("export-pg", n=2, q=4),
               case("theorem", n=3)]
    path = WORK / "output"
    for c in samples:
        lines = runner.cli(c.argv)["stdout"].read_text().splitlines(keepends=True)
        path.write_text("".join(lines))
        expect(check_output(c, path) is None, f"accepts the real output of {c.name}")
        if c.command == "theorem":
            rep = json.loads("".join(lines))
            rep["counts"]["d"] += 1
            bad = json.dumps(rep)
        else:
            bad = "".join(tampered(lines, 2, 3))
        path.write_text(bad)
        expect(check_output(c, path) is not None, f"rejects a tampered output of {c.name}")
        if c.command == "theorem":
            rep["counts"]["d"] -= 1
            rep["status"] = "indeterminate"
            path.write_text(json.dumps(rep))

    theorem, gen = samples[-1], samples[0]
    classes = [((theorem, 3, ""), "indeterminate"),
               ((theorem, None, ""), "timeout"),
               ((theorem, 1, "Traceback (most recent call last):\n  ...\nKeyError: 1\n"), "crash"),
               ((theorem, 2, "error: refused\n"), "refused"),
               ((theorem, 1, ""), "wrong"),
               ((gen, 3, ""), "bad-exit"),
               ((gen, 7, ""), "bad-exit")]
    for (c, code, stderr), want in classes:
        got = classify(c, code, stderr, path)[0]
        expect(got == want, f"exit {code} of {c.name} classified {got}, expected {want}")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", "--workload", "q2-proof",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "refuses to run without the package sources")


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        check_known_answers()
        check_bare_directory()
        check_metrics()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
