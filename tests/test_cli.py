"""End-to-end CLI contract: formats, exit codes, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import naivemat
from naivemat.cli import (EXIT_FAIL, EXIT_INDETERMINATE, EXIT_PASS, EXIT_USAGE,
                          format_matrix_pbm, format_rows_csv, format_rows_json, main)
from naivemat.greedy import GenParams, generate

FANO_CSV = "1,2,3\n1,4,5\n1,6,7\n2,4,6\n2,5,7\n3,4,7\n3,5,6\n"

# child interpreters import the same package as the tests, however pytest was started
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(naivemat.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_fano_csv(capsys):
    code, out, _ = run_cli(capsys, "generate", "--k", "3", "--r", "3", "--rows", "7")
    assert code == EXIT_PASS
    assert out == FANO_CSV


def test_generate_rows_json_exact(capsys):
    code, out, _ = run_cli(capsys, "generate", "--k", "3", "--r", "1", "--rows", "2",
                           "--format", "rows-json")
    assert code == EXIT_PASS
    assert out == '{"k":3,"r":1,"rows":[[1,2,3],[4,5,6]]}\n'


def test_rows_json_round_trip_is_byte_identical(capsys):
    _, out, _ = run_cli(capsys, "generate", "--k", "4", "--r", "3", "--rows", "9",
                        "--format", "rows-json")
    doc = json.loads(out)
    assert format_rows_json(doc["k"], doc["r"], doc["rows"]) == out


def test_generate_matrix_pbm(capsys):
    code, out, _ = run_cli(capsys, "generate", "--k", "3", "--r", "3", "--rows", "7",
                           "--format", "matrix-pbm")
    assert code == EXIT_PASS
    lines = out.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "7 7"
    assert len(lines) == 9
    for row in lines[2:]:
        cells = row.split(" ")
        assert set(cells) <= {"0", "1"}
        assert sum(map(int, cells)) == 3
    assert out.endswith("\n")


def test_generate_bad_k_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "generate", "--k", "1", "--r", "1", "--rows", "1")
    assert code == EXIT_USAGE
    assert "k must be at least 2" in err


def test_generate_missing_flag_is_usage_error(capsys):
    assert main(["generate", "--k", "3", "--r", "3"]) == EXIT_USAGE


def test_generate_cap_failure_is_runtime_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "generate", "--k", "3", "--r", "1", "--rows", "2",
                             "--column-cap", "3")
    assert code == EXIT_FAIL
    assert "cap" in err
    assert out == ""
    target = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "generate", "--k", "3", "--r", "1", "--rows", "2",
                         "--column-cap", "3", "--out", str(target))
    assert code == EXIT_FAIL
    assert not target.exists()


def test_generate_column_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("COLUMN_CAP", "3")
    code, _, _ = run_cli(capsys, "generate", "--k", "3", "--r", "1", "--rows", "2")
    assert code == EXIT_FAIL
    monkeypatch.setenv("COLUMN_CAP", "64")
    code, out, _ = run_cli(capsys, "generate", "--k", "3", "--r", "1", "--rows", "2")
    assert code == EXIT_PASS and out == "1,2,3\n4,5,6\n"


def test_generate_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "generate", "--k", "3", "--r", "3", "--rows", "7",
                           "--out", str(target))
    assert code == EXIT_PASS
    assert out == ""
    assert target.read_text() == FANO_CSV


def naive_pbm(rows, width):
    """The PBM bitmap cell by cell, as a reference for the streamed one."""
    out = [f"P1\n{width} {len(rows)}\n"]
    for row in rows:
        out.append(" ".join("1" if j in row else "0" for j in range(1, width + 1)) + "\n")
    return "".join(out)


@pytest.mark.parametrize("k,r,n_rows", [(3, 3, 700), (3, 1, 300)])
def test_generate_streams_the_formatted_text(tmp_path, capsys, k, r, n_rows):
    rows = list(generate(GenParams(k, r, n_rows)))
    width = max(pts[-1] for pts in rows)
    expected = {"rows-csv": format_rows_csv(rows),
                "matrix-pbm": format_matrix_pbm(rows, width, len(rows))}
    assert expected["matrix-pbm"] == naive_pbm(rows, width)
    for fmt, text in expected.items():
        argv = ["generate", "--k", str(k), "--r", str(r), "--rows", str(n_rows),
                "--format", fmt]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_PASS and out == text
        target = tmp_path / f"{fmt}.txt"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == EXIT_PASS and out == ""
        assert target.read_text() == text


def test_generate_unwritable_out_is_clean_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "generate", "--k", "3", "--r", "3", "--rows", "7",
                             "--out", str(tmp_path))
    assert code == EXIT_FAIL and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_theorem_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem", "--n", "2")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["counts"]["d"] == 7 and doc["counts"]["s"] == 7
    assert list(doc.keys()) == ["subject", "status", "checks", "counts", "elapsed_ms"]


def test_verify_periodicity_and_invariants(capsys):
    code, out, _ = run_cli(capsys, "verify", "periodicity", "--n", "2", "--blocks", "3")
    assert code == EXIT_PASS and json.loads(out)["status"] == "pass"
    code, out, _ = run_cli(capsys, "verify", "invariants", "--n", "3")
    assert code == EXIT_PASS and json.loads(out)["status"] == "pass"


def test_verify_invariants_default_max_n(capsys):
    code, out, _ = run_cli(capsys, "verify", "invariants", "--n", "10")
    doc = json.loads(out)
    assert code == EXIT_PASS and doc["status"] == "pass"
    assert doc["counts"]["steps"] == 698_027
    assert doc["counts"]["complete_points"] == 2047


def test_verify_lemma(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma", "--bound", "64")
    assert code == EXIT_PASS
    assert json.loads(out)["counts"]["triples"] == 64 ** 3


def test_verify_field(capsys):
    code, out, _ = run_cli(capsys, "verify", "field", "--q", "16")
    assert code == EXIT_PASS
    code, _, err = run_cli(capsys, "verify", "field", "--q", "6")
    assert code == EXIT_USAGE and "Fermat" in err


def test_verify_general_with_iso(capsys):
    code, out, _ = run_cli(capsys, "verify", "general", "--a", "1", "--n", "2", "--iso")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["counts"]["v"] == 21
    # --iso is accepted and changes nothing
    _, plain, _ = run_cli(capsys, "verify", "general", "--a", "1", "--n", "2")
    assert json.loads(plain)["checks"] == doc["checks"]


def test_verify_general_above_point_bound_is_indeterminate(capsys):
    # q = 256 has 65793 points: a size bound, reported as undecided, not refused
    code, out, err = run_cli(capsys, "verify", "general", "--a", "3", "--n", "2")
    assert code == EXIT_INDETERMINATE and err == ""
    assert json.loads(out)["status"] == "indeterminate"


def test_verify_report_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "theorem", "--n", "1", "--out", str(target))
    assert code == EXIT_PASS
    assert json.loads(target.read_text())["status"] == "pass"


def test_verify_unwritable_out_is_clean_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "verify", "theorem", "--n", "1", "--out", str(target))
    assert code == EXIT_FAIL and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_verify_bad_bound_is_usage(capsys):
    code, _, _ = run_cli(capsys, "verify", "lemma", "--bound", "9999")
    assert code == EXIT_USAGE


def test_verify_failing_report_exits_one(capsys, monkeypatch):
    import naivemat.cli as cli
    from naivemat.report import VerificationReport

    def fake_verify(n):
        rep = VerificationReport(subject="forced failure")
        rep.add("doomed", False, {"row": 1})
        return rep

    monkeypatch.setattr(cli, "verify_theorem_q2", fake_verify)
    code, out, _ = run_cli(capsys, "verify", "theorem", "--n", "2")
    assert code == EXIT_FAIL
    assert json.loads(out)["status"] == "fail"


# ---------------------------------------------------------------------------
# export-pg
# ---------------------------------------------------------------------------

def test_export_pg_single_line(capsys):
    code, out, _ = run_cli(capsys, "export-pg", "--n", "1", "--q", "2")
    assert code == EXIT_PASS
    assert out == "1,2,3\n"


def test_export_pg_fano_pbm(capsys):
    code, out, _ = run_cli(capsys, "export-pg", "--n", "2", "--q", "2",
                           "--format", "matrix-pbm")
    assert code == EXIT_PASS
    lines = out.splitlines()
    assert lines[0] == "P1" and lines[1] == "7 7"
    assert all(sum(int(c) for c in row.split(" ")) == 3 for row in lines[2:])


def test_export_pg_nim_model(capsys):
    code, out, _ = run_cli(capsys, "export-pg", "--n", "2", "--q", "2", "--model", "nim")
    assert code == EXIT_PASS
    assert out == FANO_CSV
    code, _, _ = run_cli(capsys, "export-pg", "--n", "2", "--q", "4", "--model", "nim")
    assert code == EXIT_USAGE
    # at q = 2 the nim model is the canonical one, byte for byte: the
    # xor-closed triples {a, b, a^b}, lex-sorted, over points 1..2^(n+1)-1
    for n in (2, 3, 4):
        top = 1 << (n + 1)
        triples = sorted((a, b, a ^ b) for a in range(1, top)
                         for b in range(a + 1, top) if a ^ b > b)
        for fmt in ("rows-csv", "rows-json", "matrix-pbm"):
            args = ("export-pg", "--n", str(n), "--q", "2", "--format", fmt)
            code, nim, _ = run_cli(capsys, *args, "--model", "nim")
            assert code == EXIT_PASS
            assert nim == run_cli(capsys, *args)[1]
        assert nim.splitlines()[:2] == ["P1", f"{top - 1} {len(triples)}"]
        code, csv, _ = run_cli(capsys, "export-pg", "--n", str(n), "--q", "2", "--model", "nim")
        assert csv == "".join(f"{a},{b},{c}\n" for a, b, c in triples)


def test_export_pg_invalid_q(capsys):
    code, _, err = run_cli(capsys, "export-pg", "--n", "2", "--q", "6")
    assert code == EXIT_USAGE
    assert "Fermat" in err


def test_export_pg_rows_json(capsys):
    code, out, _ = run_cli(capsys, "export-pg", "--n", "2", "--q", "4",
                           "--format", "rows-json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["k"] == 5 and doc["r"] == 5 and len(doc["rows"]) == 21


def test_export_pg_unwritable_out_is_clean_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "export-pg", "--n", "2", "--q", "2",
                             "--out", str(tmp_path))
    assert code == EXIT_FAIL and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")


# ---------------------------------------------------------------------------
# process-level smoke
# ---------------------------------------------------------------------------

def test_module_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "naivemat", "generate",
                           "--k", "3", "--r", "3", "--rows", "7"],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout == FANO_CSV


def test_closed_stdout_pipe_is_not_a_traceback():
    proc = subprocess.Popen([sys.executable, "-m", "naivemat", "generate",
                             "--k", "3", "--r", "1", "--rows", "50000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=CHILD_ENV)
    assert proc.stdout.readline() == "1,2,3\n"
    proc.stdout.close()  # like `| head -1`
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_PASS
    assert err == ""


def test_help_exits_zero():
    assert main(["--help"]) == 0
