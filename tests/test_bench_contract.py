"""The traced benchmark worker still runs against the package.

perfbench/trace_worker.py calls into naivemat's modules directly, so a
change to the generator or geometry API can break the traced benchmark
without breaking any CLI test.  This runs case 0 of every workload through
the worker in a subprocess and applies the benchmark's own known-answer
check.  It reads perfbench/ and writes only to a temporary directory.
"""

import importlib.util
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


@pytest.mark.parametrize("workload", sorted(cases.WORKLOADS))
def test_trace_worker_runs_case_0(tmp_path, workload):
    case = cases.WORKLOADS[workload][0]
    out = tmp_path / "stdout"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               **dict(case.env))
    with open(out, "w") as fh:
        proc = subprocess.run([sys.executable, str(BENCH / "trace_worker.py"), workload, "0",
                               str(tmp_path / "spans.json")],
                              stdout=fh, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    # every workload states a true claim, so the worker must exit as the CLI would on a pass
    assert proc.returncode == cases.EXIT_PASS, proc.stderr
    assert "Traceback" not in proc.stderr
    assert cases.check_output(case, out) is None
    assert (tmp_path / "spans.json").exists()
