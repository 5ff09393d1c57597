"""Spans around the calls into each polypow module, recorded from outside.

The traced run replaces module attributes of polypow with timing wrappers;
nothing under src/ changes.  A span holds its name, start, end, parent span,
run id and the operation it served, plus `busy` (its own active seconds) and
a few counts.  For a row generator the span stays open across the consumer's
work, so `busy` sums only the time spent inside the generator.  Spans stay in
memory and are written out once, when the traced child exits.

`layer_metrics` turns one pass's spans into the per-layer metrics.  A span's
self time is its busy time minus the busy time of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from statistics import median

# (module, attribute, span name, count).  Every binding of fpoly.iter_rows is
# wrapped under one span name, because blocks and cli import it by name.
TARGETS = (
    ("polypow.cli", "main", "cli.main", None),
    ("polypow.fpoly", "iter_rows", "fpoly.iter_rows", "rows"),
    ("polypow.blocks", "iter_rows", "fpoly.iter_rows", "rows"),
    ("polypow.cli", "iter_rows", "fpoly.iter_rows", "rows"),
    ("polypow.blocks", "line_complexity_range", "blocks.closure", "blocks"),
    ("polypow.blocks", "scan_accessible", "blocks.scan", "n"),
    ("polypow.blocks", "infer_recursion", "blocks.infer", None),
    ("polypow.willson", "enumerate_classes", "willson.enumerate", None),
    ("polypow.willson", "build_transfer", "willson.build", "trimmed"),
    ("polypow.willson", "verify_counts", "willson.verify", None),
    ("polypow.willson", "perron", "willson.perron", None),
    ("polypow.willson", "minpoly_of_lambda", "willson.minpoly", None),
    ("polypow.willson", "charpoly", "zzpoly.charpoly", "dim"),
    ("polypow.willson", "isolate_root", "zzpoly.isolate", None),
    ("polypow.willson", "squarefree_part", "zzpoly.squarefree", None),
    ("polypow.willson", "factor_int_poly", "zzpoly.factor", "pending"),
)

_COUNTS = {
    "blocks": lambda args, kwargs, result: sum(result),
    "n": lambda args, kwargs, result: args[1] if len(args) > 1 else kwargs["n"],
    "trimmed": lambda args, kwargs, result: len(result.trimmed),
    "dim": lambda args, kwargs, result: len(args[0]),
    "pending": lambda args, kwargs, result: int(result is None),
}

# name, unit, layer, and the end-to-end metric and workload it should move.
LAYER_METRICS = (
    ("fpoly.iter_rows.s", "s", "fpoly", "wall_s on survey_scan (scans; also under willson.verify)"),
    ("fpoly.rows", "count", "fpoly", "wall_s on survey_scan"),
    ("fpoly.digits", "count", "fpoly", "wall_s on survey_scan"),
    ("blocks.scan.self_s", "s", "blocks", "wall_s on survey_scan"),
    ("blocks.scan.windows", "count", "blocks", "wall_s on survey_scan"),
    ("blocks.closure.s", "s", "blocks", "wall_s and peak_rss_mb on closure; small share on survey_scan"),
    ("blocks.closure.blocks", "count", "blocks", "wall_s and peak_rss_mb on closure"),
    ("blocks.infer.self_s", "s", "blocks", "wall_s on survey_scan"),
    ("blocks.infer.closure_calls", "count", "blocks", "wall_s on survey_scan"),
    ("willson.enumerate.s", "s", "willson", "wall_s on survey_scan"),
    ("willson.build.s", "s", "willson", "wall_s on survey_scan"),
    ("willson.trimmed.max", "count", "willson", "wall_s on survey_scan"),
    ("willson.trimmed.sum", "count", "willson", "wall_s on survey_scan"),
    ("willson.verify.self_s", "s", "willson", "wall_s on survey_scan"),
    ("willson.perron.self_s", "s", "willson", "wall_s on survey_scan (float guide and ratio check)"),
    ("willson.minpoly.self_s", "s", "willson", "wall_s on survey_scan"),
    ("zzpoly.charpoly.s", "s", "_zzpoly", "wall_s on survey_scan; no change on closure"),
    ("zzpoly.charpoly.calls", "count", "_zzpoly", "wall_s on survey_scan"),
    ("zzpoly.charpoly.max_dim", "count", "_zzpoly", "wall_s on survey_scan"),
    ("zzpoly.charpoly.share", "%", "_zzpoly", "wall_s on survey_scan (share of the survey operation's time)"),
    ("zzpoly.isolate.s", "s", "_zzpoly", "wall_s on survey_scan"),
    ("zzpoly.squarefree.s", "s", "_zzpoly", "wall_s on survey_scan"),
    ("zzpoly.factor.s", "s", "_zzpoly", "wall_s on survey_scan"),
    ("zzpoly.factor.pending", "ratio", "_zzpoly", "failed operations on survey_scan"),
    ("cli.self_s", "s", "cli", "wall_s on survey_scan (fractal PBM emit)"),
    ("process.cpu_s", "s", "process", "diagnostic only"),
    ("trace.overhead_s", "s", "benchmark", "diagnostic only: traced minus untraced wall_s"),
)


class Tracer:
    """Records spans for the calls that `install` wraps."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.op = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "run": self.run_id, "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "busy": 0.0}
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
                span["busy"] = span["end"] - span["start"]
            if count is not None:
                span["count"] = count(args, kwargs, result)
            return result
        return traced

    def wrap_rows(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            span["rows"] = span["digits"] = 0
            rows = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                self._stack.append(span["id"])
                try:
                    row = next(rows)
                except StopIteration:
                    return
                finally:
                    self._stack.pop()
                    span["end"] = time.perf_counter()
                    span["busy"] += span["end"] - t0
                span["rows"] += 1
                span["digits"] += len(row)
                yield row
        return traced

    def install(self) -> list[str]:
        """Wrap every target; return the targets that no longer exist."""
        dropped = []
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                dropped.append(f"{module_name}.{attr}")
            elif count == "rows":
                setattr(module, attr, self.wrap_rows(name, fn))
            else:
                setattr(module, attr, self.wrap(name, fn, _COUNTS.get(count)))
        return dropped

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[dict], op_s: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; op_s maps each operation to its time."""
    by_name = defaultdict(list)
    child_busy = defaultdict(float)
    children = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            child_busy[span["parent"]] += span["busy"]
            children[span["parent"]].append(span)

    def busy(name):
        return sum(s["busy"] for s in by_name[name])

    def self_s(name):
        return sum(s["busy"] - child_busy[s["id"]] for s in by_name[name])

    def counts(name):
        return [s["count"] for s in by_name[name]]

    windows = sum(
        rows["digits"] + rows["rows"] * (scan["count"] + 1)
        for scan in by_name["blocks.scan"] if scan["count"] > 0
        for rows in children[scan["id"]] if rows["name"] == "fpoly.iter_rows")
    pending = counts("zzpoly.factor")
    # the share of the operations that call charpoly, i.e. of the survey
    charpoly_ops = sum(op_s[op] for op in {s["op"] for s in by_name["zzpoly.charpoly"]}) or 1.0
    return {
        "fpoly.iter_rows.s": busy("fpoly.iter_rows"),
        "fpoly.rows": sum(s["rows"] for s in by_name["fpoly.iter_rows"]),
        "fpoly.digits": sum(s["digits"] for s in by_name["fpoly.iter_rows"]),
        "blocks.scan.self_s": self_s("blocks.scan"),
        "blocks.scan.windows": windows,
        "blocks.closure.s": busy("blocks.closure"),
        "blocks.closure.blocks": sum(counts("blocks.closure")),
        "blocks.infer.self_s": self_s("blocks.infer"),
        "blocks.infer.closure_calls": sum(
            1 for s in by_name["blocks.closure"]
            if s["parent"] is not None and spans[s["parent"]]["name"] == "blocks.infer"),
        "willson.enumerate.s": busy("willson.enumerate"),
        "willson.build.s": busy("willson.build"),
        "willson.trimmed.max": max(counts("willson.build"), default=0),
        "willson.trimmed.sum": sum(counts("willson.build")),
        "willson.verify.self_s": self_s("willson.verify"),
        "willson.perron.self_s": self_s("willson.perron"),
        "willson.minpoly.self_s": self_s("willson.minpoly"),
        "zzpoly.charpoly.s": busy("zzpoly.charpoly"),
        "zzpoly.charpoly.calls": len(by_name["zzpoly.charpoly"]),
        "zzpoly.charpoly.max_dim": max(counts("zzpoly.charpoly"), default=0),
        "zzpoly.charpoly.share": 100 * busy("zzpoly.charpoly") / charpoly_ops,
        "zzpoly.isolate.s": busy("zzpoly.isolate"),
        "zzpoly.squarefree.s": busy("zzpoly.squarefree"),
        "zzpoly.factor.s": busy("zzpoly.factor"),
        "zzpoly.factor.pending": sum(pending) / len(pending) if pending else 0.0,
        "cli.self_s": self_s("cli.main"),
    }


def summarize(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """Medians over the traced passes, plus CPU and tracing overhead.

    Each pass record holds its `wall_s`, `cpu_s` and, when traced, `layers`.
    """
    layers = traced[0]["layers"]
    out = {name: median(p["layers"][name] for p in traced) for name in layers}
    out["process.cpu_s"] = median(p["cpu_s"] for p in plain)
    out["trace.overhead_s"] = median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in plain)
    return out
