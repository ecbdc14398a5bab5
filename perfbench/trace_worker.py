"""Run one benchmark case in-process, with a span around each call the
benchmark makes into a naivemat module.

    python3 perfbench/trace_worker.py WORKLOAD INDEX SPANS_JSON

Writes the case's output to stdout and exits with the code the CLI would
use, so the known-answer checks apply unchanged. The spans (name, start,
end, parent, counters) stay in memory and go to SPANS_JSON at exit.

A `verify` harness hides its calls into other modules, so after it the
worker replays those calls with the same parameters, each in a span marked
`replay`; the harness's self time is its span minus the case's replay spans.
A public function that no longer exists is listed as absent and skipped.
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
import time
from contextlib import contextmanager

from cases import WORKLOADS, pg_counts

from naivemat import cli, geometry, greedy, nimber, verify

MODULES = {"cli": cli, "geometry": geometry, "greedy": greedy, "nimber": nimber,
           "verify": verify}
STATUS_EXIT = {"pass": 0, "fail": 1, "indeterminate": 3}


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def resolve(self, dotted: str):
        """The public function module.name, or None (recorded) if it is gone."""
        mod, _, name = dotted.partition(".")
        fn = getattr(MODULES[mod], name, None)
        if fn is None:
            self.absent.add(dotted)
        return fn

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        peak = _peak_mb()
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            attrs["rss_growth_mb"] = _peak_mb() - peak
            self._stack.pop()

    def call(self, dotted: str, *args, replay: bool = False, **kwargs):
        fn = self.resolve(dotted)
        if fn is None:
            return None
        with self.span(dotted, replay=replay):
            return fn(*args, **kwargs)


def generate_rows(tr: Tracer, k: int, r: int, count: int, replay: bool = False,
                  peek: bool = False) -> list | None:
    """Greedy generation; peek=True repeats the invariant replay's
    peek-then-commit call pattern."""
    gen_cls = tr.resolve("greedy.NaiveMatrixGenerator")
    params_cls = tr.resolve("greedy.GenParams")
    if gen_cls is None or params_cls is None:
        return None
    with tr.span("greedy.generate", replay=replay) as attrs:
        gen = gen_cls(params_cls(k=k, r=r, max_rows=count))
        for _ in range(count):
            if peek:
                gen.peek_next_row()
            gen.next_row()
    top = gen.max_used_column
    attrs.update(rows=count, max_column=top,
                 pair_mask_bits=sum(gen.connectable_mask(x).bit_length() for x in range(1, top + 1)))
    return [row.points for row in gen.rows]


def format_rows(tr: Tracer, fmt: str, rows, width: int) -> str:
    if fmt == "matrix-pbm":
        name, args = "cli.format_matrix_pbm", (rows, width, len(rows))
    else:
        name, args = "cli.format_rows_csv", (rows,)
    text = tr.call(name, *args)
    tr.spans[-1]["attrs"]["bytes"] = len(text)
    return text


def replay_general(tr: Tracer, p: dict, budget: int) -> None:
    q = 2 ** (2 ** p["a"])
    v, b, r, k = pg_counts(p["n"], q)
    rows = generate_rows(tr, k, r, b, replay=True)
    if rows is None:
        return
    s = tr.call("geometry.IncidenceStructure", point_window=max(v, max(x[-1] for x in rows)),
                lines=tuple(rows), replay=True)
    tr.call("geometry.check_design", s, v, k, r, 1, replay=True)
    vy = tr.call("geometry.check_veblen_young", s, replay=True)
    if vy is not None:
        tr.spans[-1]["attrs"].update(triangles=vy.counts.get("triangles", 0),
                                     transversals=vy.counts.get("transversals", 0))
    if not p.get("iso") or tr.resolve("geometry.isomorphic") is None:
        return
    model = tr.call("geometry.build_pg", p["n"], q, replay=True)
    with tr.span("geometry.as_incidence", replay=True):
        model = model.as_incidence()
    res = tr.call("geometry.isomorphic", s, model, node_budget=budget, replay=True)
    tr.spans[-1]["attrs"].update(nodes=res.nodes, points=v)


def supported(fn, **kwargs) -> dict:
    """The keyword arguments fn still accepts."""
    names = inspect.signature(fn).parameters
    return {k: v for k, v in kwargs.items() if k in names}


def harness(tr: Tracer, c) -> tuple[str, tuple, dict]:
    """The public function behind `verify <command>`, with its arguments."""
    p = c.p
    if c.command == "theorem":
        return "verify.verify_theorem_q2", (p["n"],), {}
    if c.command == "periodicity":
        return "verify.verify_zero_blocks_and_periodicity", (p["n"], p["blocks"]), {}
    if c.command == "invariants":
        return "verify.verify_proof_invariants", (p["n"],), {}
    if c.command == "general":
        fn = tr.resolve("verify.verify_general_q")
        kwargs = supported(fn, check_iso=bool(p.get("iso")), node_budget=budget(c)) if fn else {}
        return "verify.verify_general_q", (p["a"], p["n"]), kwargs
    if c.command == "field":
        return "nimber.field_check", (p["q"],), {"mode": p.get("mode", "exhaustive"),
                                                  "samples": p.get("samples", 1_000_000)}
    return "verify.lemma_exhaustive", (p["bound"],), {}


def replay(tr: Tracer, c) -> None:
    """The calls a verify harness makes into other modules, made again with
    the same parameters."""
    p = c.p
    if c.command in ("theorem", "periodicity", "invariants"):
        _, d, r, _ = pg_counts(p["n"], 2)
        generate_rows(tr, 3, r, d * p.get("blocks", 1), replay=True,
                      peek=c.command == "invariants")
        if c.command == "theorem":
            tr.call("geometry.build_pg2_nim", p["n"], replay=True)
    elif c.command == "general":
        replay_general(tr, p, budget(c))
    elif c.command == "field" and p["q"] <= 256 and p.get("mode", "exhaustive") == "exhaustive":
        tr.call("nimber.nim_mul_table", p["q"])  # the mex reference at the same q


def budget(c) -> int:
    default = getattr(geometry, "DEFAULT_NODE_BUDGET", 10_000_000)
    return int(dict(c.env).get("BUDGET_NODES", default))


def run_case(tr: Tracer, c) -> tuple[int, str]:
    """Output and exit code the CLI would give for case c.

    A harness runs first, as in the CLI's fresh process, then its replays.
    """
    p = c.p
    if c.command == "generate":
        rows = generate_rows(tr, p["k"], p["r"], p["rows"])
        width = max(x[-1] for x in rows)
        return 0, format_rows(tr, p.get("format", "rows-csv"), rows, width)
    if c.command == "export-pg":
        geom = tr.call("geometry.build_pg", p["n"], p["q"])
        return 0, format_rows(tr, "rows-csv", geom.lines, geom.v)

    name, args, kwargs = harness(tr, c)
    rep = tr.call(name, *args, **kwargs)
    if rep is None:
        print(f"error: {name} is absent", file=sys.stderr)
        return 2, ""
    tr.spans[-1]["attrs"].update(steps=rep.counts.get("steps", 0),
                                 triples=rep.counts.get("triples", 0))
    with tr.span("report.to_json") as attrs:
        text = rep.to_json() + "\n"
    attrs["bytes"] = len(text)
    replay(tr, c)
    return STATUS_EXIT[rep.status], text


def main() -> int:
    workload, index, spans_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    c = WORKLOADS[workload][index]
    tr = Tracer()
    with tr.span("case", case=c.name):
        code, text = run_case(tr, c)
    sys.stdout.write(text)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tr.spans, "absent": sorted(tr.absent)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
