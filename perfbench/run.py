"""naivemat benchmark: time-to-verdict and peak RSS of CLI cases, plus a
traced run that times each module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the package is imported from ./src).
Each case is a fresh `python3 -m naivemat ...` subprocess, run one at a
time; its output is checked against answers computed in cases.py. Passes
over the workload's cases repeat until the next one would end after S
seconds; the seed only shuffles the order of cases within each pass.

--trace 0 prints the end-to-end metrics; wall_s and setup_s are scaled to a
reference speed by a fixed job timed around each case (see REFERENCE_JOB).
--trace 1 alternates untraced passes with traced passes (trace_worker.py,
one fresh process per case) and prints the per-layer metrics, including the
tracing overhead.

The last line of stdout is the result JSON; the line before it records the
environment and inputs, and a full record with spans goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from cases import DECIDED, ERRORS, WORKLOADS, classify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# A fixed job in a fresh interpreter that never touches naivemat: a dict of
# tuples and big-int bit operations, like the package's own work. Its wall
# time says how fast the shared machine runs at the moment.
REFERENCE_JOB = """
memo = {}
for i in range(200_000):
    memo[i * 2654435761 % 1_000_003] = (i, i ^ 0x5555)
mask = 0
for key, (i, j) in memo.items():
    mask |= 1 << (key & 4095)
    mask &= ~(1 << (j & 4095))
"""
REFERENCE_S = 0.25  # the job's usual wall time on the baseline machine
CASE_LIMIT_S = 30.0   # per case; a slower case counts as a timeout
RUN_LIMIT_S = 150.0   # no case starts or runs past this, so a run ends well inside 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "decided_share": "ratio", "correct_share": "ratio"}
LAYER_UNITS = {
    "greedy.time_s": "s", "greedy.rows": "count", "greedy.rows_per_s": "1/s",
    "greedy.max_column": "count", "greedy.pair_mask_bits": "bits", "greedy.rss_growth_mb": "MB",
    "verify.time_s": "s", "verify.self_s": "s", "verify.steps": "count",
    "geometry.pasch_s": "s", "geometry.pasch_triangles": "count",
    "geometry.pasch_transversals": "count", "geometry.design_s": "s",
    "geometry.iso_s": "s", "geometry.iso_nodes": "count", "geometry.iso_nodes_per_point": "nodes/point",
    "geometry.build_pg_s": "s", "geometry.build_pg2_nim_s": "s",
    "nimber.field_s": "s", "nimber.triples": "count", "nimber.triples_per_s": "1/s",
    "nimber.rss_growth_mb": "MB", "nimber.mex_table_s": "s",
    "cli.format_s": "s", "cli.output_bytes": "bytes", "cli.rss_growth_mb": "MB",
    "report.to_json_s": "s", "report.bytes": "bytes",
    "trace.pass_s": "s", "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}
# Time metrics a dominant-span report picks from (self times, no overlap).
DOMINANT_CANDIDATES = ("greedy.time_s", "verify.self_s", "geometry.pasch_s", "geometry.design_s",
                       "geometry.iso_s", "geometry.build_pg_s", "geometry.build_pg2_nim_s",
                       "nimber.field_s", "nimber.mex_table_s", "cli.format_s", "report.to_json_s")


class Runner:
    """Runs case subprocesses one at a time under the per-case and per-run limits."""

    def __init__(self, tmp: Path, started: float):
        self.tmp = tmp
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv: list[str], extra_env: dict) -> dict:
        """Run argv; wall time from spawn to reap, its ru_maxrss, its exit code
        (None if killed at the limit), and where stdout/stderr went."""
        out, err = self.tmp / "stdout", self.tmp / "stderr"
        limit = min(CASE_LIMIT_S, self.deadline - time.perf_counter())
        if limit <= 0:
            return {"wall_s": 0.0, "rss_mb": 0.0, "exit": None, "stdout": out, "stderr": err}
        done: dict = {}
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT,
                                    env={**self.env, **extra_env})

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                done.update(end=time.perf_counter(), status=status, usage=usage)

            waiter = threading.Thread(target=reap)
            waiter.start()
            waiter.join(limit)
            killed = waiter.is_alive()
            if killed:
                os.kill(proc.pid, signal.SIGKILL)  # only `reap` reaps, so the pid is still ours
                waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(done["status"])
        return {"wall_s": done["end"] - start, "rss_mb": done["usage"].ru_maxrss / 1024.0,
                "exit": None if killed else proc.returncode, "stdout": out, "stderr": err}

    def cli(self, argv: list[str], extra_env: dict | None = None) -> dict:
        return self.spawn([sys.executable, "-m", "naivemat", *argv], extra_env or {})

    def run_case(self, workload: str, index: int, traced: bool) -> dict:
        c = WORKLOADS[workload][index]
        spans_path = self.tmp / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            res = self.spawn([sys.executable, str(BENCH / "trace_worker.py"), workload,
                              str(index), str(spans_path)], dict(c.env))
        else:
            res = self.cli(c.argv, dict(c.env))
        stderr = res["stderr"].read_text(errors="replace")
        outcome, detail = classify(c, res["exit"], stderr, res["stdout"])
        rec = {"case": c.name, "outcome": outcome, "detail": detail, "exit": res["exit"],
               "wall_s": res["wall_s"], "rss_mb": res["rss_mb"]}
        if traced and spans_path.exists():
            rec.update(json.loads(spans_path.read_text()))
        return rec


def run_pass(runner: Runner, workload: str, order: list[int], traced: bool) -> dict:
    """One pass over the cases.

    An untraced pass runs the reference job before each case and after the
    last, and a set-up call (a CLI call that does no work) right before each
    case. The case and its set-up call are then scaled to the reference speed
    by the two reference times around them: the machine's speed of the moment
    moves all three alike, a change in naivemat only the case.
    """
    if traced:
        cases = [runner.run_case(workload, i, True) for i in order]
        return {"wall_s": sum(c["wall_s"] for c in cases), "cases": cases}
    reference = [runner.spawn([sys.executable, "-c", REFERENCE_JOB], {})["wall_s"]]
    setup, cases = [], []
    for i in order:
        setup_s = runner.cli(["--help"])["wall_s"]
        case = runner.run_case(workload, i, False)
        reference.append(runner.spawn([sys.executable, "-c", REFERENCE_JOB], {})["wall_s"])
        case["scale"] = REFERENCE_S / ((reference[-2] + reference[-1]) / 2)
        setup.append({"wall_s": setup_s, "scaled_s": setup_s * case["scale"]})
        cases.append(case)
    return {"wall_s": sum(c["wall_s"] for c in cases),
            "scaled_wall_s": sum(c["wall_s"] * c["scale"] for c in cases),
            "peak_rss_mb": max(c["rss_mb"] for c in cases), "setup_s": setup,
            "reference_s": reference, "cases": cases}


def layer_metrics(cases: list[dict]) -> dict:
    """Per-layer totals of one traced pass, from its spans."""
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    iso_points = 0
    for c in cases:
        spans = c.get("spans", [])
        replay = sum(s["end"] - s["start"] for s in spans if s["attrs"].get("replay"))
        for s in spans:
            name, a, t = s["name"], s["attrs"], s["end"] - s["start"]
            if name == "greedy.generate":
                m["greedy.time_s"] += t
                m["greedy.rows"] += a["rows"]
                m["greedy.max_column"] = max(m["greedy.max_column"], a["max_column"])
                m["greedy.pair_mask_bits"] += a["pair_mask_bits"]
                m["greedy.rss_growth_mb"] = max(m["greedy.rss_growth_mb"], a["rss_growth_mb"])
            elif name.startswith("verify."):
                m["verify.time_s"] += t
                m["verify.self_s"] += t - replay
                m["verify.steps"] += a["steps"]
            elif name == "geometry.check_veblen_young":
                m["geometry.pasch_s"] += t
                m["geometry.pasch_triangles"] += a["triangles"]
                m["geometry.pasch_transversals"] += a["transversals"]
            elif name == "geometry.check_design":
                m["geometry.design_s"] += t
            elif name == "geometry.isomorphic":
                m["geometry.iso_s"] += t
                m["geometry.iso_nodes"] += a["nodes"]
                iso_points += a["points"]
            elif name == "geometry.build_pg":
                m["geometry.build_pg_s"] += t
            elif name == "geometry.build_pg2_nim":
                m["geometry.build_pg2_nim_s"] += t
            elif name == "nimber.field_check":
                m["nimber.field_s"] += t
                m["nimber.triples"] += a["triples"]
                m["nimber.rss_growth_mb"] = max(m["nimber.rss_growth_mb"], a["rss_growth_mb"])
            elif name == "nimber.nim_mul_table":
                m["nimber.mex_table_s"] += t
            elif name.startswith("cli.format_"):
                m["cli.format_s"] += t
                m["cli.output_bytes"] += a["bytes"]
                m["cli.rss_growth_mb"] = max(m["cli.rss_growth_mb"], a["rss_growth_mb"])
            elif name == "report.to_json":
                m["report.to_json_s"] += t
                m["report.bytes"] += a["bytes"]
    m["greedy.rows_per_s"] = m["greedy.rows"] / m["greedy.time_s"] if m["greedy.time_s"] else 0.0
    m["nimber.triples_per_s"] = m["nimber.triples"] / m["nimber.field_s"] if m["nimber.field_s"] else 0.0
    m["geometry.iso_nodes_per_point"] = m["geometry.iso_nodes"] / iso_points if iso_points else 0.0
    return m


def measure(workload: str, indices: list[int], seed: int, seconds: float, trace: bool,
            tmp: Path, started: float) -> dict:
    """Passes until the next would end after `seconds` (at least one of each kind)."""
    runner = Runner(tmp, started)
    runner.cli(["--help"])  # warm-up: bytecode compiled, files in the page cache
    rng = random.Random(seed)
    kinds = [False, True] if trace else [False]
    passes: dict[bool, list[dict]] = {False: [], True: []}
    t0 = time.perf_counter()
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        begin = time.perf_counter()
        passes[traced].append(run_pass(runner, workload, rng.sample(indices, len(indices)), traced))
        passes[traced][-1]["elapsed_s"] = time.perf_counter() - begin
        nxt = kinds[(i + 1) % len(kinds)]
        if time.perf_counter() >= runner.deadline:
            break
        if passes[nxt] and time.perf_counter() - t0 + passes[nxt][-1]["elapsed_s"] > seconds:
            break
    return {"passes": passes[False], "traced_passes": passes[True]}


def summarize(m: dict, trace: bool) -> tuple[dict, dict]:
    """(result line, extra record) from the raw measurements."""
    runs = m["passes"] + m["traced_passes"]
    outcomes = [c for p in runs for c in p["cases"]]
    attempted = len(outcomes)
    failed = sum(c["outcome"] in ERRORS for c in outcomes)
    e2e = [c for p in m["passes"] for c in p["cases"]]
    walls = [p["wall_s"] for p in m["passes"]]
    setup = [t for p in m["passes"] for t in p["setup_s"]]
    extra = {"samples": {"setup_s": len(setup), "wall_s": len(walls)},
             "unscaled": {"setup_s": statistics.median(t["wall_s"] for t in setup),
                          "wall_s": statistics.median(walls)},
             "reference_s": statistics.median(t for p in m["passes"] for t in p["reference_s"]),
             "outcomes": {o: sum(c["outcome"] == o for c in outcomes)
                          for o in sorted({c["outcome"] for c in outcomes})}}
    if not trace:
        values = {
            "setup_s": statistics.median(t["scaled_s"] for t in setup),
            "wall_s": statistics.median(p["scaled_wall_s"] for p in m["passes"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in m["passes"]),
            "decided_share": sum(c["outcome"] == DECIDED for c in e2e) / len(e2e),
            "correct_share": 1.0 - sum(c["outcome"] in ERRORS for c in e2e) / len(e2e),
        }
        units = END_TO_END_UNITS
    else:
        per_pass = [layer_metrics(p["cases"]) for p in m["traced_passes"]]
        values = {k: statistics.median(pm[k] for pm in per_pass) for k in LAYER_UNITS}
        values["trace.pass_s"] = statistics.median(p["wall_s"] for p in m["traced_passes"])
        values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(walls)
        values["trace.overhead_share"] = values["trace.overhead_s"] / statistics.median(walls)
        extra["dominant"] = max(DOMINANT_CANDIDATES, key=values.get)
        extra["absent"] = sorted({a for p in m["traced_passes"] for c in p["cases"]
                                  for a in c.get("absent", [])})
        extra["samples"]["traced"] = len(per_pass)
        units = LAYER_UNITS
    result = {"correct": not any(c["outcome"] == "wrong" for c in outcomes),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    return result, extra


def environment(runner: Runner) -> dict:
    """Interpreter, numpy, CPU count and commit of the tree under test."""
    probe = ("import json, sys, numpy, naivemat; print(json.dumps({'python': sys.version.split()[0], "
             "'numpy': numpy.__version__, 'naivemat': naivemat.__version__, "
             "'package_file': naivemat.__file__}))")
    res = runner.spawn([sys.executable, "-c", probe], {})
    if res["exit"] != 0:
        raise SystemExit("error: cannot import naivemat from ./src:\n"
                         + res["stderr"].read_text(errors="replace"))
    env = json.loads(res["stdout"].read_text())
    if not Path(env.pop("package_file")).resolve().is_relative_to(SRC):
        raise SystemExit("error: naivemat was imported from outside ./src")
    env["nproc"] = len(os.sched_getaffinity(0))
    env["commit"] = git_commit()
    return env


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def run(workload: str, seed: int, seconds: float, trace: bool,
        indices: list[int] | None = None) -> tuple[dict, dict]:
    """Measure one workload (or the given case indices of it); returns the
    result line and the full record."""
    started = time.perf_counter()
    if not (SRC / "naivemat" / "__init__.py").is_file():
        raise SystemExit(f"error: no naivemat package under {SRC}; run from a source tree")
    cases = WORKLOADS[workload]
    indices = list(range(len(cases))) if indices is None else indices
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = environment(Runner(tmp, started))
        raw = measure(workload, indices, seed, seconds, trace, tmp, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result, extra = summarize(raw, trace)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env,
              "inputs": [{"argv": ["naivemat", *cases[i].argv], "env": dict(cases[i].env)}
                         for i in indices],
              # a child's ru_maxrss starts at this process's peak, so this must stay
              # below the smallest case's peak for peak_rss_mb to be the case's own
              "bench_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              **extra, "result": result, "raw": raw}
    return result, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    summary = {k: record[k] for k in ("workload", "seed", "environment", "inputs", "samples",
                                      "unscaled", "reference_s", "outcomes", "dominant", "absent") if k in record}
    print(json.dumps({"record": str(path.relative_to(ROOT)), **summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
