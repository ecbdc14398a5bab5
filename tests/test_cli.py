"""End-to-end CLI contract: formats, exit codes, round trips."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import naivemat
from naivemat import cli, greedy
from naivemat.cli import (EXIT_FAIL, EXIT_INDETERMINATE, EXIT_PASS, EXIT_USAGE,
                          format_matrix_pbm, format_rows_csv, main)
from naivemat.geometry import build_pg, expected_counts
from naivemat.greedy import GenParams, generate

FANO_CSV = "1,2,3\n1,4,5\n1,6,7\n2,4,6\n2,5,7\n3,4,7\n3,5,6\n"

# child interpreters import the same package as the tests, however pytest was started
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(naivemat.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
# a child's stdout written through or block-buffered: the mode decides whether
# a failed or closed stdout shows at a batch's write or at the final flush
STDOUT_MODES = {"write-through": {**CHILD_ENV, "PYTHONUNBUFFERED": "1"},
                "buffered": {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

@pytest.fixture
def next_row_calls(monkeypatch):
    """The `emitted` count at each NaiveMatrixGenerator.next_row call."""
    calls = []
    next_row = greedy.NaiveMatrixGenerator.next_row

    def counted(self):
        calls.append(self.emitted)
        return next_row(self)

    monkeypatch.setattr(greedy.NaiveMatrixGenerator, "next_row", counted)
    return calls


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
    assert json.dumps(doc, separators=(",", ":")) + "\n" == out


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


def test_generate_cap_failure_is_runtime_error(tmp_path, capsys, monkeypatch):
    # matrix-pbm holds at most cli._PBM_MAX_WIDTH columns: rows 1-3 of
    # (3, 1) fit under a bound of 9 and row 4 does not, so nothing is written
    monkeypatch.setattr(cli, "_PBM_MAX_WIDTH", 9)
    argv = ["generate", "--k", "3", "--r", "1", "--rows", "5", "--format", "matrix-pbm"]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_FAIL
    assert err == "error: matrix-pbm holds at most 9 columns, and row 4 uses column 12\n"
    assert out == ""
    target = tmp_path / "matrix.pbm"
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == EXIT_FAIL and out == ""
    assert not target.exists()


def test_generate_pbm_stops_at_the_first_row_past_the_width_bound(tmp_path, capsys, monkeypatch,
                                                                  next_row_calls):
    # at (1024, 1) row 1024 ends at column 2^20 and row 1025 passes it; block
    # 0 is row 1, so next_row runs once and the rest is its replay
    drawn = []  # the last column of each row the first pass draws
    stream = greedy.generate

    def counted(params):
        for row in stream(params):
            drawn.append(row[-1])
            yield row

    monkeypatch.setattr(greedy, "generate", counted)
    target = tmp_path / "matrix.pbm"
    code, out, err = run_cli(capsys, "generate", "--k", "1024", "--r", "1", "--rows", "2000",
                             "--format", "matrix-pbm", "--out", str(target))
    assert code == EXIT_FAIL and out == ""
    assert err == ("error: matrix-pbm holds at most 1048576 columns, "
                   "and row 1025 uses column 1049600\n")
    assert not target.exists()
    assert len(drawn) == 1025 and drawn[-1] == 1049600
    assert next_row_calls == [0]


@pytest.mark.parametrize("fmt", ["rows-csv", "rows-json"])
def test_generate_rows_past_column_2_to_the_20(capsys, fmt):
    # the rows formats have no width bound: row 1025 of (1024, 1) is the
    # run of fresh columns above 2^20
    code, out, err = run_cli(capsys, "generate", "--k", "1024", "--r", "1", "--rows", "1025",
                             "--format", fmt)
    assert code == EXIT_PASS and err == ""
    last = list(range(1048577, 1049601))
    if fmt == "rows-csv":
        lines = out.splitlines()
        assert len(lines) == 1025
        assert lines[-1] == ",".join(map(str, last))
    else:
        rows = json.loads(out)["rows"]
        assert len(rows) == 1025
        assert rows[-1] == last


@pytest.mark.parametrize("fmt, cap, passes, rows", [
    ("rows-csv", None, 1, 7),
    ("rows-json", None, 1, 7),
    ("matrix-pbm", None, 2, 7),  # the header needs the width
    ("matrix-pbm", 7, 2, 7),  # the widest row ends at the PBM width bound
    ("rows-csv", 6, 1, 7),  # the bound is matrix-pbm's alone
    ("matrix-pbm", None, 2, 70),  # blocks 1-9 replay block 0 in each pass
], ids=["rows-csv-None-1", "rows-json-None-1", "matrix-pbm-None-2", "matrix-pbm-7-2",
        "rows-csv-6-1", "matrix-pbm-None-2-70"])
def test_generate_runs_a_first_pass_only_when_needed(capsys, monkeypatch, next_row_calls,
                                                      fmt, cap, passes, rows):
    if cap is not None:
        monkeypatch.setattr(cli, "_PBM_MAX_WIDTH", cap)
    code, out, _ = run_cli(capsys, "generate", "--k", "3", "--r", "3", "--rows", str(rows),
                           "--format", fmt)
    assert code == EXIT_PASS
    assert len(next_row_calls) == passes * 7
    if fmt == "rows-csv":
        assert out == FANO_CSV
    if fmt == "matrix-pbm":
        fano = [tuple(map(int, line.split(","))) for line in FANO_CSV.splitlines()]
        blocks = [tuple(x + 7 * t for x in row) for t in range(rows // 7) for row in fano]
        assert out == format_matrix_pbm(blocks, rows, rows)


def test_generate_column_cap_flag_is_gone(capsys):
    code, out, _ = run_cli(capsys, "generate", "--k", "3", "--r", "1", "--rows", "2",
                           "--column-cap", "3")
    assert code == EXIT_USAGE and out == ""


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


def reference_text(fmt, rows, k, r, width):
    """The output of every format row by row, formatted apart from cli: the
    reference for its batched writers."""
    if fmt == "rows-csv":
        return "".join(",".join(map(str, row)) + "\n" for row in rows)
    if fmt == "rows-json":
        return (f'{{"k":{json.dumps(k)},"r":{json.dumps(r)},"rows":['
                + ",".join(json.dumps(list(row), separators=(",", ":")) for row in rows)
                + "]}\n")
    return naive_pbm(rows, width)


def assert_writes_the_reference(tmp_path, capsys, monkeypatch, argv, rows, k, r, width):
    """argv in every format, to stdout and to --out, gives the reference
    text at the default batch bound and at bounds that cut one-row batches
    (a row at, just under and just over the bound) and batches that end
    one row before, at and one row past the last row."""
    for fmt in cli._FORMATS:
        expected = reference_text(fmt, rows, k, r, width)
        size = width if fmt == "matrix-pbm" else k  # the points of one row
        bounds = [cli._BATCH_POINTS, size - 1, size, size + 1, 2 * size - 1, 2 * size,
                  *(n * size for n in (len(rows) - 1, len(rows), len(rows) + 1))]
        for bound in bounds:
            monkeypatch.setattr(cli, "_BATCH_POINTS", bound)
            code, out, _ = run_cli(capsys, *argv, "--format", fmt)
            assert code == EXIT_PASS and out == expected, (fmt, bound)
            target = tmp_path / f"{fmt}.txt"
            code, out, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(target))
            assert code == EXIT_PASS and out == ""
            assert target.read_text() == expected, (fmt, bound)
            if fmt == "rows-csv":
                assert format_rows_csv(rows) == expected
            if fmt == "matrix-pbm":
                assert format_matrix_pbm(rows, width, len(rows)) == expected


@pytest.mark.parametrize("k,r,n_rows", [(3, 3, 700), (3, 1, 300), (1024, 1, 3)])
def test_generate_streams_the_formatted_text(tmp_path, capsys, monkeypatch, k, r, n_rows):
    rows = list(generate(GenParams(k, r, n_rows)))
    argv = ["generate", "--k", str(k), "--r", str(r), "--rows", str(n_rows)]
    assert_writes_the_reference(tmp_path, capsys, monkeypatch, argv, rows, k, r,
                                max(pts[-1] for pts in rows))


def _points(piece):
    return len(re.findall(r"\d+", piece))


@pytest.mark.parametrize("fmt, k, r, n_rows", [
    ("rows-csv", 3, 1, 30000), ("rows-json", 3, 1, 30000),
    ("matrix-pbm", 3, 3, 70),  # 14 lines of 70 cells a batch
    ("matrix-pbm", 3, 1, 400),  # each line of 1200 cells is a batch of its own
])
def test_generate_writes_a_batch_at_a_time(tmp_path, monkeypatch, fmt, k, r, n_rows):
    pieces = []
    write = cli._write

    def recorded(lines, out):
        write((pieces.append(piece) or piece for piece in lines), out)

    monkeypatch.setattr(cli, "_write", recorded)
    target = tmp_path / "out.txt"
    assert main(["generate", "--k", str(k), "--r", str(r), "--rows", str(n_rows),
                 "--format", fmt, "--out", str(target)]) == EXIT_PASS
    assert "".join(pieces) == target.read_text()
    bound = cli._BATCH_POINTS
    if fmt == "matrix-pbm":
        width = int(pieces[0].split()[1])
        batches = pieces[1:]  # after the header
        rows_in = [piece.count("\n") for piece in batches]
        points = [n * width for n in rows_in]
        size = width
    else:
        batches = pieces if fmt == "rows-csv" else pieces[1:-1]  # between the JSON brackets
        points = [_points(piece) for piece in batches]
        rows_in = [n // k for n in points]
        size = k
    assert sum(rows_in) == n_rows
    # a piece holds one batch, or one row wider than the bound
    assert all(n <= bound or rows == 1 for n, rows in zip(points, rows_in))
    assert len(pieces) <= -(-n_rows // max(1, bound // size)) + 2
    if fmt != "matrix-pbm":
        assert len(pieces) <= -(-n_rows * k // bound) + 2


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
    assert json.loads(out)["counts"] == {"bound": 64, "triples": 64 ** 3, "states": 5}


def test_verify_field(capsys):
    code, out, _ = run_cli(capsys, "verify", "field", "--q", "16")
    assert code == EXIT_PASS
    code, _, err = run_cli(capsys, "verify", "field", "--q", "6")
    assert code == EXIT_USAGE and "Fermat" in err
    # every Fermat q up to 2^32 is decided exactly, with no sampled check
    code, out, err = run_cli(capsys, "verify", "field", "--q", "4294967296")
    doc = json.loads(out)
    assert code == EXIT_PASS and err == "" and doc["status"] == "pass"
    assert any("256, 65536" in c["name"] for c in doc["checks"])
    assert not any("sampled" in c["name"] for c in doc["checks"])
    assert doc["counts"] == {"q": 4294967296, "mode": "exhaustive", "triples": 2 ** 96}


GF_LAWS = ["closure of [0,q) under nim product", "1 is the multiplicative identity",
           "commutativity", "associativity (exhaustive)", "distributivity (exhaustive)",
           "every nonzero element has an inverse"]
TOWER_LAWS = ["closure of [0,256) under nim product",
              "1 is the multiplicative identity in GF(256)", "commutativity in GF(256)",
              "associativity in GF(256) (exhaustive)", "distributivity in GF(256) (exhaustive)",
              "every nonzero element has an inverse in GF(256)",
              "X^2 + X + c irreducible over GF(F), Tr(c) = 1, at tower levels F = 256, 65536"]
# (check names, triples) of each passing report, as printed before the laws
# were decided on the basis
FIELD_REPORTS = {2: (GF_LAWS, 8), 4: (GF_LAWS, 64), 16: (GF_LAWS, 4096),
                 256: (GF_LAWS, 16777216),
                 4294967296: (TOWER_LAWS, 79228162514264337593543950336)}


@pytest.mark.parametrize("q", FIELD_REPORTS)
def test_verify_field_report_is_pinned(capsys, q):
    code, out, _ = run_cli(capsys, "verify", "field", "--q", str(q))
    doc = json.loads(out)
    assert code == EXIT_PASS and list(doc)[-1] == "elapsed_ms"
    del doc["elapsed_ms"]
    names, triples = FIELD_REPORTS[q]
    assert json.dumps(doc) == json.dumps({
        "subject": f"nim field q={q}", "status": "pass",
        "checks": [{"name": name, "status": "pass", "witness": None} for name in names],
        "counts": {"q": q, "mode": "exhaustive", "triples": triples}})


def test_verify_general_with_iso(capsys):
    code, out, _ = run_cli(capsys, "verify", "general", "--a", "1", "--n", "2", "--iso")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["counts"]["v"] == 21
    # --iso is accepted and changes nothing
    _, plain, _ = run_cli(capsys, "verify", "general", "--a", "1", "--n", "2")
    assert json.loads(plain)["checks"] == doc["checks"]


def test_verify_general_above_point_bound_is_indeterminate(capsys, replay_rows):
    # q = 256 has 65793 points: a size bound, reported as undecided, not refused
    code, out, err = run_cli(capsys, "verify", "general", "--a", "3", "--n", "2")
    assert code == EXIT_INDETERMINATE and err == ""
    assert json.loads(out)["status"] == "indeterminate"
    # the q = 2 commands share that bound: PG(13,2) has 16383 points
    replay_rows(())
    code, out, err = run_cli(capsys, "verify", "theorem", "--n", "13")
    assert code == EXIT_INDETERMINATE and err == ""


@pytest.mark.parametrize("argv,code", [
    ("verify theorem --n 14283", EXIT_INDETERMINATE),
    ("verify periodicity --n 14284 --blocks 1", EXIT_INDETERMINATE),
    ("verify invariants --n 14284", EXIT_INDETERMINATE),
    ("verify general --a 1 --n 7200", EXIT_INDETERMINATE),
    ("export-pg --n 20000 --q 2", EXIT_FAIL),  # the point budget: a runtime error
    ("verify general --a 100000000000000000000 --n 2", EXIT_USAGE),
    # generate hands the rows still to come to islice, which stops at 2^63 - 1
    ("generate --k 3 --r 1 --rows 99999999999999999999", EXIT_USAGE),
    ("generate --k 3 --r 1 --rows 99999999999999999999 --format rows-json", EXIT_USAGE),
    ("generate --k 3 --r 1 --rows 99999999999999999999 --format matrix-pbm", EXIT_USAGE),
    # three stream counters per sampled triple must fit in 64 bits
    ("verify field --q 4 --mode sampled --samples 99999999999999999999", EXIT_USAGE),
])
def test_huge_arguments_are_refused_without_a_traceback(capsys, argv, code):
    # the point counts have over 4300 digits here, more than Python will
    # print, and q = 2^(2^a) more bits than fit in memory
    got, out, err = run_cli(capsys, *argv.split())
    assert got == code
    if code in (EXIT_USAGE, EXIT_FAIL):
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        doc = json.loads(out)
        assert doc["status"] == "indeterminate" and err == ""
        assert doc["checks"][0]["witness"] == {
            "reason": "at least 2^63 points exceed the point bound 10000"}


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
    for bound in (9999, 2 ** 63):
        code, out, _ = run_cli(capsys, "verify", "lemma", "--bound", str(bound))
        assert code == EXIT_PASS and json.loads(out)["counts"]["bound"] == bound
    for bound in (0, 2 ** 63 + 1, 10 ** 1500):  # 10^1500 has more digits than Python prints
        code, out, err = run_cli(capsys, "verify", "lemma", "--bound", str(bound))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_failing_report_exits_one(capsys, monkeypatch):
    from naivemat.report import VerificationReport

    def fake_verify(n):
        rep = VerificationReport(subject="forced failure")
        rep.add("doomed", False, {"row": 1})
        return rep

    monkeypatch.setattr("naivemat.verify.verify_theorem_q2", fake_verify)
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
    # at q = 2 the canonical model is the nim-triple model: the xor-closed
    # triples {a, b, a^b}, lex-sorted, over points 1..2^(n+1)-1
    for n in (2, 3, 4):
        top = 1 << (n + 1)
        triples = sorted((a, b, a ^ b) for a in range(1, top)
                         for b in range(a + 1, top) if a ^ b > b)
        code, csv, _ = run_cli(capsys, "export-pg", "--n", str(n), "--q", "2")
        assert code == EXIT_PASS
        assert csv == "".join(f"{a},{b},{c}\n" for a, b, c in triples)


@pytest.mark.parametrize("n,q", [(3, 2), (2, 4), (2, 16)])
def test_export_pg_streams_the_model_lines(tmp_path, capsys, monkeypatch, n, q):
    lines = build_pg(n, q).lines
    v, b, r, k = expected_counts(n, q)
    argv = ["export-pg", "--n", str(n), "--q", str(q)]
    assert_writes_the_reference(tmp_path, capsys, monkeypatch, argv, lines, k, r, v)
    assert format_matrix_pbm(lines, v, b).count("\n") == b + 2


def _export_peak_bytes(tmp_path, n):
    argv = ["export-pg", "--n", str(n), "--q", "2", "--out", str(tmp_path / "lines.csv")]
    main(argv)  # the multiplier's one-time tables are built outside the measurement
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_PASS
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_pg_memory_is_not_per_line(tmp_path):
    # b grows 16x from n = 5 to n = 7 (651 -> 10795 lines); a held line
    # costs about 100 bytes, and the lines go to the file one at a time
    b5, b7 = expected_counts(5, 2).b, expected_counts(7, 2).b
    assert _export_peak_bytes(tmp_path, 7) - _export_peak_bytes(tmp_path, 5) < 8 * (b7 - b5)


def _peak_bytes(run, rows):
    tracemalloc.start()
    try:
        run(rows)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_memory_is_not_per_row(tmp_path):
    # the command is measured against a bare pass over `generate`, so that
    # only what the command adds is counted; a held row costs about 130
    # bytes more
    def command(rows):
        assert main(["generate", "--k", "3", "--r", "7", "--rows", str(rows),
                     "--out", str(tmp_path / "rows.csv")]) == EXIT_PASS

    def bare(rows):
        for _ in generate(GenParams(3, 7, rows)):
            pass

    small, large = 2800, 11200
    command(small)  # one-time set-up is left outside the measurement
    growth = {run: _peak_bytes(run, large) - _peak_bytes(run, small) for run in (command, bare)}
    assert growth[command] - growth[bare] < 20 * (large - small)


def test_generate_memory_is_flat_at_r1(tmp_path):
    # every row retires its three columns and the next commit drops them,
    # so neither the command nor the generator holds anything per row;
    # keeping every used column's state cost about 110 bytes a row here
    def command(rows):
        assert main(["generate", "--k", "3", "--r", "1", "--rows", str(rows),
                     "--out", str(tmp_path / "rows.csv")]) == EXIT_PASS

    small, large = 3000, 30000
    command(small)  # one-time set-up is left outside the measurement
    assert _peak_bytes(command, large) - _peak_bytes(command, small) < 2 * (large - small)


def test_export_pg_invalid_q(capsys):
    code, _, err = run_cli(capsys, "export-pg", "--n", "2", "--q", "6")
    assert code == EXIT_USAGE
    assert "Fermat" in err


def test_export_pg_over_the_point_budget_is_a_runtime_error(capsys):
    # a model over its size budget is not a usage error: exit 1, nothing written
    code, out, err = run_cli(capsys, "export-pg", "--n", "14", "--q", "2")
    assert code == EXIT_FAIL and out == ""
    assert err == "error: PG(14,2): 32767 points exceed the point bound 10000\n"


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
    for mode, env in STDOUT_MODES.items():
        proc = subprocess.run([sys.executable, "-m", "naivemat", "generate",
                               "--k", "3", "--r", "3", "--rows", "7"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, mode
        assert proc.stdout == FANO_CSV, mode


def test_closed_stdout_pipe_is_not_a_traceback():
    for mode, env in STDOUT_MODES.items():
        proc = subprocess.Popen([sys.executable, "-m", "naivemat", "generate",
                                 "--k", "3", "--r", "1", "--rows", "50000"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=env)
        assert proc.stdout.readline() == "1,2,3\n", mode
        proc.stdout.close()  # like `| head -1`
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_PASS, mode
        assert err == "", mode


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", ["verify theorem --n 3", "generate --k 3 --r 3 --rows 7"])
def test_full_stdout_is_a_clean_error(argv):
    for mode, env in STDOUT_MODES.items():
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "naivemat", *argv.split()],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert proc.returncode == EXIT_FAIL, mode
        assert proc.stderr == "error: cannot write stdout: No space left on device\n", mode


def _run_with_closed(fd, argv, **kwargs):
    """`naivemat argv` in a child whose descriptor fd is closed before it starts."""
    return subprocess.run([sys.executable, "-m", "naivemat", *argv.split()],
                          preexec_fn=lambda: os.close(fd), text=True, **kwargs)


@pytest.mark.parametrize("argv", ["generate --k 3 --r 1 --rows 5", "verify theorem --n 2",
                                  "export-pg --n 2 --q 2"])
def test_closed_stdout_is_a_clean_error(argv):
    # the interpreter starts with sys.stdout None: treated as an unwritable stdout
    for mode, env in STDOUT_MODES.items():
        proc = _run_with_closed(1, argv, stderr=subprocess.PIPE, env=env)
        assert proc.returncode == EXIT_FAIL, mode
        assert proc.stderr == "error: cannot write stdout: it is closed\n", mode


@pytest.mark.parametrize("argv", ["verify theorem --n 0", "generate --k 1 --r 1 --rows 1"])
def test_closed_stderr_keeps_the_usage_exit_code(argv):
    # a parameter error past argparse: its error line is lost, not moved to
    # stdout, and the exit code stays 2
    proc = _run_with_closed(2, argv, stdout=subprocess.PIPE, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")


@pytest.mark.parametrize("argv", ["verify theorem", "generate --k 3 --r x", "frobnicate"])
def test_closed_stderr_drops_the_argparse_usage(argv):
    # an argument error with no stderr: argparse would print its usage
    # line on stdout; nothing reaches stdout, and the exit code stays 2
    proc = _run_with_closed(2, argv, stdout=subprocess.PIPE, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")


def test_help_exits_zero():
    assert main(["--help"]) == 0


# The modules a command adds to those of a bare interpreter.  No command
# loads numpy: the exact field laws and the GF(256) product table are bytes
# and ints, and the sampled field check draws and multiplies packed ints
_COLD_START = """
import sys
bare = set(sys.modules)
from naivemat.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else None
added = sorted(set(sys.modules) - bare)
import json
print(json.dumps([code, added]))
"""


def _cold_start(tmp_path, argv):
    """The exit code of `naivemat argv` in a fresh interpreter (None for the
    import alone), and the modules it added."""
    if argv[-1:] == ["--out"]:
        argv = argv + [str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", _COLD_START, *argv],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    code, added = json.loads(proc.stdout.splitlines()[-1])
    return code, set(added)


@pytest.mark.parametrize("argv, loads_numpy", [
    ([], False),  # the import alone
    (["--help"], False),
    (["generate", "--k", "3", "--r", "3", "--rows", "7", "--out"], False),
    (["verify", "theorem", "--n", "3", "--out"], False),
    (["verify", "periodicity", "--n", "3", "--blocks", "2", "--out"], False),
    (["verify", "invariants", "--n", "3", "--out"], False),
    (["export-pg", "--n", "2", "--q", "2", "--out"], False),
    (["export-pg", "--n", "2", "--q", "4", "--out"], False),
    (["export-pg", "--n", "2", "--q", "16", "--out"], False),
    (["verify", "general", "--a", "1", "--n", "2", "--out"], False),
    (["verify", "field", "--q", "16", "--out"], False),
    (["verify", "field", "--q", "4294967296", "--out"], False),
    (["verify", "field", "--q", "65536", "--mode", "sampled", "--samples", "10", "--out"], False),
    (["verify", "field", "--q", "4294967296", "--mode", "sampled", "--samples", "10", "--out"],
     False),
    (["verify", "lemma", "--bound", "8", "--out"], False),
    (["export-pg", "--n", "1", "--q", "256", "--out"], False),  # a width-8 product
    (["verify", "general", "--a", "3", "--n", "1", "--out"], False),  # q = 256
], ids=lambda x: (" ".join(x) or "import") if isinstance(x, list) else
                 ("numpy" if x else "no-numpy"))
def test_numpy_is_loaded_only_by_array_commands(tmp_path, argv, loads_numpy):
    # no command loads numpy, the sampled field check included
    code, added = _cold_start(tmp_path, argv)
    assert code in (None, EXIT_PASS)
    assert ("numpy" in added) == loads_numpy


@pytest.mark.parametrize("argv, code, loads", [
    ([], None, set()),  # the import alone
    (["--help"], EXIT_PASS, set()),
    (["generate", "--k", "3"], EXIT_USAGE, set()),  # an argument error
    (["generate", "--k", "3", "--r", "3", "--rows", "7", "--out"], EXIT_PASS, {"greedy"}),
    (["generate", "--k", "3", "--r", "3", "--rows", "7", "--format", "rows-json", "--out"],
     EXIT_PASS, {"greedy"}),
    (["export-pg", "--n", "2", "--q", "4", "--out"], EXIT_PASS, {"geometry", "nimber"}),
    (["verify", "field", "--q", "16", "--out"], EXIT_PASS, {"nimber"}),
    (["verify", "lemma", "--bound", "8", "--out"], EXIT_PASS,
     {"verify", "geometry", "greedy", "nimber"}),
    (["verify", "general", "--a", "1", "--n", "2", "--out"], EXIT_PASS,
     {"verify", "geometry", "greedy", "nimber"}),
], ids=lambda x: (" ".join(x) or "import") if isinstance(x, list) else
                 ("+".join(sorted(x)) or "no-harness") if isinstance(x, set) else f"exit-{x}")
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, code, loads):
    got, added = _cold_start(tmp_path, argv)
    assert got == code
    harness = {"greedy", "geometry", "nimber", "verify"}
    assert {m for m in harness if f"naivemat.{m}" in added} == loads
    # generate's block record, the only array, loads its extension module
    assert ("array" in added) == (argv[:1] == ["generate"] and got == EXIT_PASS)
    # rows-json is written with %d, which gives the text json.dumps gives an int
    assert "json" not in added or argv[:1] != ["generate"]
    assert "dataclasses" not in added
    assert "inspect" not in added
