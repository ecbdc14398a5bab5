"""Command-line front end: row generation, verification harnesses, exports.

Exit codes: 0 = pass/success, 1 = verification failure or runtime error,
2 = usage or invalid parameters, 3 = indeterminate verification.
Artifacts go to stdout unless --out is given; diagnostics go to stderr.
Output is written piece by piece once it is fully computed, so a failed
generation writes nothing; an unwritable --out exits 1 with an error line.

`verify general` certifies by exact identity with the ranked lines of
PG(n, q); `--iso` is accepted and ignored, since the identity already
compares the rows with the model.

Environment: COLUMN_CAP overrides the generator safety cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (InputRangeError, InvalidParameterError, OutputError,
                     ResourceLimitError, RowIncompleteError)
from .geometry import build_pg, expected_counts
from .greedy import DEFAULT_COLUMN_CAP, GenParams, generate
from .nimber import field_check
from .report import FAIL, INDETERMINATE, PASS
from .verify import (lemma_exhaustive, verify_general_q, verify_proof_invariants,
                     verify_theorem_q2, verify_zero_blocks_and_periodicity)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

_STATUS_EXIT = {PASS: EXIT_PASS, FAIL: EXIT_FAIL, INDETERMINATE: EXIT_INDETERMINATE}
_FORMATS = ("rows-csv", "rows-json", "matrix-pbm")


def _csv_lines(rows):
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _json_chunks(k: int, r: int, rows):
    yield f'{{"k":{json.dumps(k)},"r":{json.dumps(r)},"rows":['
    sep = ""
    for row in rows:
        yield sep + json.dumps(list(row), separators=(",", ":"))
        sep = ","
    yield "]}\n"


def _pbm_lines(rows, width: int, height: int):
    yield f"P1\n{width} {height}\n"
    blank = b"0 " * (width - 1) + b"0\n"  # cell j sits at byte 2(j-1)
    for row in rows:
        line = bytearray(blank)
        for j in row:
            line[2 * j - 2] = 49  # "1"
        yield line.decode("ascii")


def format_rows_csv(rows) -> str:
    return "".join(_csv_lines(rows))


def format_rows_json(k: int, r: int, rows) -> str:
    return "".join(_json_chunks(k, r, rows))


def format_matrix_pbm(rows, width: int, height: int) -> str:
    return "".join(_pbm_lines(rows, width, height))


def _format_lines(fmt: str, rows, k: int, r: int, width: int):
    if fmt == "rows-csv":
        return _csv_lines(rows)
    if fmt == "rows-json":
        return _json_chunks(k, r, rows)
    return _pbm_lines(rows, width, len(rows))


def _write(lines, out: str | None) -> None:
    """Write the text pieces to --out, or to stdout, one at a time."""
    if not out:
        try:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early (`| head`): drop the rest, and point
            # stdout at devnull so the flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise OutputError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(f"environment variable {name} must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="naivemat",
        description="Greedy 0/1 matrix generation and projective-space verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit the first rows of the greedy matrix")
    g.add_argument("--k", type=int, required=True, help="columns per row")
    g.add_argument("--r", type=int, required=True, help="rows per column")
    g.add_argument("--rows", type=int, required=True, help="number of rows to generate")
    g.add_argument("--format", choices=_FORMATS, default="rows-csv")
    g.add_argument("--out", help="output file (default: stdout)")
    g.add_argument("--column-cap", type=int, default=None,
                   help="safety cap on the column scan (default: env COLUMN_CAP or 2^20)")

    vf = sub.add_parser("verify", help="run a verification harness, emit a JSON report")
    vsub = vf.add_subparsers(dest="check", required=True)

    t = vsub.add_parser("theorem", help="rows at (3, 2^n-1) are nim triples")
    t.add_argument("--n", type=int, required=True)

    p = vsub.add_parser("periodicity", help="zero blocks and the d/s shift")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--blocks", type=int, default=3)

    i = vsub.add_parser("invariants", help="replay the connectability claims")
    i.add_argument("--n", type=int, required=True)

    gq = vsub.add_parser("general", help="rows equal the lines of PG(n, q), q = 2^(2^a)")
    gq.add_argument("--a", type=int, required=True, help="q = 2^(2^a)")
    gq.add_argument("--n", type=int, required=True)
    gq.add_argument("--iso", action="store_true",
                    help="ignored: the identity check always compares with the model")

    lm = vsub.add_parser("lemma", help="exhaustive greediness scan")
    lm.add_argument("--bound", type=int, required=True)

    fd = vsub.add_parser("field", help="field laws of nim arithmetic on [0, q)")
    fd.add_argument("--q", type=int, required=True)
    fd.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    fd.add_argument("--samples", type=int, default=1_000_000,
                    help="sampled-mode triple count")

    for cmd in (t, p, i, gq, lm, fd):
        cmd.add_argument("--out", help="report file (default: stdout)")

    e = sub.add_parser("export-pg", help="export a canonical projective model")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--q", type=int, required=True)
    e.add_argument("--model", choices=("canonical", "nim"), default="canonical",
                   help="nim = xor-closed triples, q=2 only; the same lines as canonical")
    e.add_argument("--format", choices=_FORMATS, default="rows-csv")
    e.add_argument("--out")

    return parser


def _cmd_generate(args) -> int:
    cap = args.column_cap
    if cap is None:
        cap = _env_int("COLUMN_CAP", DEFAULT_COLUMN_CAP)
    params = GenParams(k=args.k, r=args.r, max_rows=args.rows, column_cap=cap)
    rows = list(generate(params))  # all rows before any output
    width = max(pts[-1] for pts in rows)
    _write(_format_lines(args.format, rows, args.k, args.r, width), args.out)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    if args.check == "theorem":
        report = verify_theorem_q2(args.n)
    elif args.check == "periodicity":
        report = verify_zero_blocks_and_periodicity(args.n, args.blocks)
    elif args.check == "invariants":
        report = verify_proof_invariants(args.n)
    elif args.check == "general":
        report = verify_general_q(args.a, args.n)
    elif args.check == "lemma":
        report = lemma_exhaustive(args.bound)
    else:
        report = field_check(args.q, mode=args.mode, samples=args.samples)
    _write([report.to_json() + "\n"], args.out)
    return _STATUS_EXIT[report.status]


def _cmd_export_pg(args) -> int:
    # at q = 2 the canonical model is the nim-triple model, point for point
    if args.model == "nim" and args.q != 2:
        raise InvalidParameterError("the nim model exists for q=2 only")
    geom = build_pg(args.n, args.q)
    counts = expected_counts(args.n, args.q)
    _write(_format_lines(args.format, geom.lines, counts.k, counts.r, geom.v), args.out)
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else EXIT_USAGE
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_export_pg(args)
    except (RowIncompleteError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (InvalidParameterError, InputRangeError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
