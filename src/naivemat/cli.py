"""Command-line front end: row generation, verification harnesses, exports.

Exit codes: 0 = pass/success, 1 = verification failure or runtime error
(an unwritable output, or a model over its size budget), 2 = usage or
invalid parameters, 3 = indeterminate verification.
Artifacts go to stdout unless --out is given; diagnostics go to stderr.
Output is written a batch at a time, one write call a batch: up to 2^10
points of rows, formatted with one `%` over a template, or up to 2^10 PBM
cells, a line wider than that on its own.  `generate` writes each batch
once its rows are generated; greedy.generate says which rows it builds
and which it replays.  For matrix-pbm a first pass, which keeps no row,
finds the width the header needs.  A PBM line costs about 2 bytes a
column, so that pass refuses a row past column 2^20 with exit 1 before
anything is written; the other formats have no width bound.
`export-pg` streams the lines of pg_lines after its parameters and point
bound are checked.  An unwritable --out or stdout, a closed one among
them, exits 1 with an error line, and a stdout pipe closed by its reader
ends the output quietly.  An unwritable stderr loses the error line (and
an argument error's usage line, which never moves to stdout) and keeps the
exit code.
Each command imports the modules it runs when it runs, so `--help` and
an argument error load no harness module and start up fastest.

`verify general` certifies by exact identity with the ranked lines of
PG(n, q); `--iso` is accepted and ignored, since the identity already
compares the rows with the model.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

from .errors import InputRangeError, InvalidParameterError, OutputError, ResourceLimitError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

_FORMATS = ("rows-csv", "rows-json", "matrix-pbm")
_PBM_MAX_WIDTH = 1 << 20  # a PBM line costs about 2 bytes a column
_BATCH_POINTS = 1 << 10  # points (PBM cells) formatted and written at once: a few KB


def _format_batches(rows, k: int, row: str, sep: str):
    """The rows of k points, max(1, _BATCH_POINTS // k) at a time, each
    batch formatted with one `%` over copies of `row`, one %d a point,
    joined by `sep`."""
    n = max(1, _BATCH_POINTS // k)
    full = sep.join([row] * n)
    rows = iter(rows)
    while batch := list(islice(rows, n)):
        template = full if len(batch) == n else sep.join([row] * len(batch))
        yield template % tuple(chain.from_iterable(batch))


def _csv_lines(rows, k: int):
    return _format_batches(rows, k, ",".join(["%d"] * k) + "\n", "")


def _json_chunks(k: int, r: int, rows):
    yield '{"k":%d,"r":%d,"rows":[' % (k, r)
    sep = ""
    for text in _format_batches(rows, k, "[" + ",".join(["%d"] * k) + "]", ","):
        yield sep + text
        sep = ","
    yield "]}\n"


def _pbm_lines(rows, width: int, height: int):
    yield f"P1\n{width} {height}\n"
    blank = b"0 " * (width - 1) + b"0\n"
    n = max(1, _BATCH_POINTS // width)
    text = bytearray()
    for i, row in enumerate(rows, 1):
        at = len(text) - 2  # cell j of this row's line sits at byte at + 2j
        text += blank
        for j in row:
            text[at + 2 * j] = 49  # "1"
        if not i % n:
            yield text.decode("ascii")
            text = bytearray()
    if text:
        yield text.decode("ascii")


def format_rows_csv(rows) -> str:
    """Rows of one length as CSV lines."""
    rows = list(rows)
    return "".join(_csv_lines(rows, len(rows[0]))) if rows else ""


def format_matrix_pbm(rows, width: int, height: int) -> str:
    return "".join(_pbm_lines(rows, width, height))


def _format_lines(fmt: str, rows, k: int, r: int, width: int, height: int):
    if fmt == "rows-csv":
        return _csv_lines(rows, k)
    if fmt == "rows-json":
        return _json_chunks(k, r, rows)
    return _pbm_lines(rows, width, height)


def _write(lines, out: str | None) -> None:
    """Write the text pieces to --out, or to stdout, one at a time."""
    if not out:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OutputError("cannot write stdout: it is closed")
        try:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        except OSError as exc:
            # the reader stopped early (`| head`) or the device is full: drop
            # the rest, and point stdout at devnull so the flush at exit
            # cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not isinstance(exc, BrokenPipeError):
                raise OutputError(f"cannot write stdout: {exc.strerror or exc}") from exc
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise OutputError(f"cannot write {out}: {exc.strerror or exc}") from exc


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, except that an argument error with no stderr
    prints nothing: argparse would print its usage line on stdout.  Its
    subparsers are of this class too."""

    def error(self, message):
        if sys.stderr is None:
            self.exit(EXIT_USAGE)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="naivemat",
        description="Greedy 0/1 matrix generation and projective-space verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit the first rows of the greedy matrix")
    g.add_argument("--k", type=int, required=True, help="columns per row")
    g.add_argument("--r", type=int, required=True, help="rows per column")
    g.add_argument("--rows", type=int, required=True, help="number of rows to generate")
    g.add_argument("--format", choices=_FORMATS, default="rows-csv")
    g.add_argument("--out", help="output file (default: stdout)")

    vf = sub.add_parser("verify", help="run a verification harness, emit a JSON report")
    vsub = vf.add_subparsers(dest="check", required=True)

    t = vsub.add_parser("theorem", help="rows at (3, 2^n-1) are nim triples")
    t.add_argument("--n", type=int, required=True)

    p = vsub.add_parser("periodicity", help="zero blocks and the d/s shift")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--blocks", type=int, default=3,
                   help="blocks of d rows the report covers; every block is decided "
                        "from block 0, which is all that is generated")

    i = vsub.add_parser("invariants", help="replay the connectability claims")
    i.add_argument("--n", type=int, required=True)

    gq = vsub.add_parser("general", help="rows equal the lines of PG(n, q), q = 2^(2^a)")
    gq.add_argument("--a", type=int, required=True, help="q = 2^(2^a)")
    gq.add_argument("--n", type=int, required=True)
    gq.add_argument("--iso", action="store_true",
                    help="ignored: the identity check always compares with the model")

    lm = vsub.add_parser("lemma", help="decide the greediness lemma for every width")
    lm.add_argument("--bound", type=int, required=True,
                    help="report [0, bound)^3 as the covered scope, up to 2^63")

    fd = vsub.add_parser("field", help="decide that [0, q) is a field under nim arithmetic")
    fd.add_argument("--q", type=int, required=True, help="a Fermat 2-power up to 2^32")
    fd.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive",
                    help="the verdict is exact in both; sampled also checks the tower "
                         "product on --samples triples drawn from the splitmix64 stream")
    fd.add_argument("--samples", type=int, default=1_000_000,
                    help="sampled-mode triple count, below 2^62")

    for cmd in (t, p, i, gq, lm, fd):
        cmd.add_argument("--out", help="report file (default: stdout)")

    e = sub.add_parser("export-pg", help="export a canonical projective model")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--q", type=int, required=True)
    e.add_argument("--format", choices=_FORMATS, default="rows-csv")
    e.add_argument("--out")

    return parser


def _cmd_generate(args) -> int:
    from .greedy import GenParams, generate

    params = GenParams(k=args.k, r=args.r, max_rows=args.rows)
    width = 0
    if args.format == "matrix-pbm":
        # a first pass, which keeps no row, gives the header its width and
        # meets a row past the bound before output starts
        for i, pts in enumerate(generate(params), 1):
            if pts[-1] > width:
                if pts[-1] > _PBM_MAX_WIDTH:
                    raise OutputError(f"matrix-pbm holds at most {_PBM_MAX_WIDTH} columns, "
                                      f"and row {i} uses column {pts[-1]}")
                width = pts[-1]
    _write(_format_lines(args.format, generate(params), args.k, args.r, width, args.rows),
           args.out)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    from .report import FAIL, INDETERMINATE, PASS

    if args.check == "field":
        from .nimber import field_check

        report = field_check(args.q, mode=args.mode, samples=args.samples)
    else:
        from . import verify

        if args.check == "theorem":
            report = verify.verify_theorem_q2(args.n)
        elif args.check == "periodicity":
            report = verify.verify_zero_blocks_and_periodicity(args.n, args.blocks)
        elif args.check == "invariants":
            report = verify.verify_proof_invariants(args.n)
        elif args.check == "general":
            report = verify.verify_general_q(args.a, args.n)
        else:
            report = verify.lemma_exhaustive(args.bound)
    _write([report.to_json() + "\n"], args.out)
    return {PASS: EXIT_PASS, FAIL: EXIT_FAIL, INDETERMINATE: EXIT_INDETERMINATE}[report.status]


def _cmd_export_pg(args) -> int:
    from .geometry import expected_counts, pg_lines

    # both raise on bad parameters or an oversized model, before any output
    counts = expected_counts(args.n, args.q)
    lines = pg_lines(args.n, args.q)
    _write(_format_lines(args.format, lines, counts.k, counts.r, counts.v, counts.b), args.out)
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
    except (OutputError, ResourceLimitError) as exc:
        _print_error(exc)
        return EXIT_FAIL
    except (InvalidParameterError, InputRangeError) as exc:
        _print_error(exc)
        return EXIT_USAGE


def _print_error(exc: Exception) -> None:
    try:
        sys.stderr.write(f"error: {exc}\n")
    except (AttributeError, OSError):  # no stderr, or a closed one: argparse's idiom
        pass


if __name__ == "__main__":
    sys.exit(main())
