"""The traced benchmark worker still runs against the package.

perfbench/trace_worker.py calls into naivemat's modules directly, so a
change to the generator or geometry API can break the traced benchmark
without breaking any CLI test.  This runs case 0 of every workload,
q2-proof's invariants case, fermat-design's `general` cases and
nim-field's sampled case through the worker in a subprocess and applies
the benchmark's own known-answer check.
It reads perfbench/ and writes only to a temporary directory.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _load_cases():
    spec = importlib.util.spec_from_file_location("perfbench_cases", BENCH / "cases.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


cases = _load_cases()


def run_traced(tmp_path, workload, index):
    """Run one case through the worker; return its spans file's contents."""
    case = cases.WORKLOADS[workload][index]
    out = tmp_path / "stdout"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               **dict(case.env))
    with open(out, "w") as fh:
        proc = subprocess.run([sys.executable, str(BENCH / "trace_worker.py"), workload, str(index),
                               str(tmp_path / "spans.json")],
                              stdout=fh, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    # every workload states a true claim, so the worker must exit as the CLI would on a pass
    assert proc.returncode == cases.EXIT_PASS, proc.stderr
    assert "Traceback" not in proc.stderr
    assert cases.check_output(case, out) is None
    return json.loads((tmp_path / "spans.json").read_text())


@pytest.mark.parametrize("workload", sorted(cases.WORKLOADS))
def test_trace_worker_runs_case_0(tmp_path, workload):
    run_traced(tmp_path, workload, 0)


def test_trace_worker_runs_sampled_field_case(tmp_path):
    # nim-field's case 2, the sampled report, under the known-answer check:
    # status pass, every check pass, counts q/mode/triples
    assert cases.WORKLOADS["nim-field"][2].p["mode"] == "sampled"
    run_traced(tmp_path, "nim-field", 2)


def test_trace_worker_runs_invariants_case(tmp_path):
    # q2-proof's case 2, the invariant replay: the worker's only
    # peek-then-commit generation, which sums connectable_mask after its run
    assert cases.WORKLOADS["q2-proof"][2].command == "invariants"
    traced = run_traced(tmp_path, "q2-proof", 2)
    replayed = [span for span in traced["spans"] if span["name"] == "greedy.generate"]
    assert [span["attrs"]["replay"] for span in replayed] == [True]
    assert replayed[0]["attrs"]["rows"] == cases.pg_counts(8, 2)[1]


@pytest.mark.parametrize("index", [2, 3, 4])
def test_trace_worker_replays_general_design_check(tmp_path, index):
    # fermat-design's case 0 is export-pg; its `general` cases replay the
    # generation, and the worker lists the gone design-check shims as absent
    assert cases.WORKLOADS["fermat-design"][index].command == "general"
    traced = run_traced(tmp_path, "fermat-design", index)
    assert {"geometry.IncidenceStructure", "geometry.check_design"} <= set(traced["absent"])
    assert any(span["name"] == "greedy.generate" and span["attrs"]["replay"] for span in traced["spans"])
