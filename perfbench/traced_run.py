"""Traced in-process lingdist run, and the per-layer metrics derived from it.

Run as a child process:

    python3 perfbench/traced_run.py SPANS_FILE RUN_ID -- <lingdist arguments>

It imports lingdist, replaces the public functions named in ``SELF_TIME``
with wrappers that record a span per call, runs ``lingdist.cli.main`` under
a root span, and writes every span once, at the end, as JSON lines.  The
wrappers go onto the module attributes because ``cli.py`` and the modules
themselves call these functions through the module.  The per-cell functions
(``raw_distance``, ``normalized_distance``, ``SubstitutionTable.cost``) run
millions of times per workload and are deliberately left unwrapped.
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import types

ROOT_SPAN = "cli.main"

# Per-layer self time: metric -> the spans whose self time it sums.  Every
# wrapped function appears exactly once, so by construction the self times
# add up to the root span.
SELF_TIME = {
    "lexicon.parse_s": ["lexicon.parse_lexicon"],
    "subst.table_s": ["subst.builtin_table", "subst.parse_table"],
    "editdist.matrix_s": ["editdist.language_matrix", "editdist.concept_matrix",
                          "editdist.all_to_all_matrix"],
    "editdist.write_oc_s": ["editdist.write_oc"],
    "cluster.agglomerate_s": ["cluster.agglomerate"],
    "cluster.silhouette_s": ["cluster.silhouette"],
    "cluster.cut_s": ["cluster.cut"],
    "cluster.scan_self_s": ["cluster.best_cut", "cluster.silhouette_scan"],
    "cluster.export_s": ["cluster.export_newick", "cluster.export_svg"],
    "stats.kde_s": ["stats.kde"],
    "stats.bhatt_s": ["stats.bhatt_matrix", "stats.bhatt_distance_matrix",
                      "stats.bhattacharyya"],
    "stats.tscore_s": ["stats.tscore"],
    "stats.mean_sd_s": ["stats.mean_sd"],
    "svgplot.render_s": ["svgplot.grouped_bars", "svgplot.curve_plot",
                         "svgplot.scatter_plot"],
    "cli.self_s": [ROOT_SPAN],
}
INCLUSIVE_TIME = {
    "cluster.best_cut_s": ["cluster.best_cut"],
    "cluster.silhouette_scan_s": ["cluster.silhouette_scan"],
}
CALLS = {
    "editdist.matrix_calls": SELF_TIME["editdist.matrix_s"],
    "cluster.silhouette_calls": ["cluster.silhouette"],
    "cluster.cut_calls": ["cluster.cut"],
    "stats.bhatt_calls": ["stats.bhattacharyya"],
    "stats.tscore_calls": ["stats.tscore"],
}


class Tracer:
    """Spans kept in memory: name, start, end, parent span and run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def span(self, name, fn, args, kwargs, note=None):
        record = {"id": len(self.spans), "run": self.run_id, "name": name,
                  "parent": self._open[-1]["id"] if self._open else None}
        if note is not None:
            record.update(note(args, kwargs))
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr, name, note=None):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, note)

        setattr(module, attr, traced)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _kde_note(kde):
    signature = inspect.signature(kde)

    def note(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values = bound.arguments["values"]
        return {"values": len(values), "distinct": len(set(values)),
                "grid": bound.arguments["grid_points"]}
    return note


def span_cost(calls=20000, repeats=5):
    """Seconds one empty wrapped call costs more than the bare call: the
    fastest of `repeats` timings of `calls` calls each."""
    def empty():
        return None

    holder = types.SimpleNamespace(empty=empty)
    Tracer("cost").wrap(holder, "empty", "empty")
    wrapped = holder.empty

    def per_call(fn):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - start)
        return best / calls
    return max(per_call(wrapped) - per_call(empty), 0.0)


def main(argv):
    spans_path, run_id, sep, *lingdist_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(run_id)
    for names in SELF_TIME.values():
        for name in names:
            if name == ROOT_SPAN:
                continue
            module_name, attr = name.split(".")
            module = importlib.import_module(f"lingdist.{module_name}")
            note = _kde_note(getattr(module, attr)) if name == "stats.kde" else None
            tracer.wrap(module, attr, name, note)
    cli = importlib.import_module("lingdist.cli")
    try:
        return tracer.span(ROOT_SPAN, cli.main, (lingdist_args,), {})
    finally:
        tracer.spans[0]["span_cost_s"] = span_cost()  # spans[0] is the root span
        tracer.write(spans_path)


# --- derived metrics (used by run.py) -----------------------------------------

def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans):
    """Per-layer self times, inclusive scan times, call counts and the
    tracer's estimated overhead, of one run."""
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    self_time = dict(duration)
    for s in spans:
        if s["parent"] is not None:
            self_time[s["parent"]] -= duration[s["id"]]

    def total(table, per_span):
        return {metric: sum(per_span[s["id"]] for s in spans if s["name"] in names)
                for metric, names in table.items()}

    metrics = total(SELF_TIME, self_time)
    metrics.update(total(INCLUSIVE_TIME, duration))
    metrics.update({metric: sum(1 for s in spans if s["name"] in names)
                    for metric, names in CALLS.items()})
    kdes = [s for s in spans if s["name"] == "stats.kde"]
    metrics["stats.kde_evals"] = sum(s["grid"] * s["values"] for s in kdes)
    metrics["stats.kde_distinct_ratio"] = (
        statistics.median(s["distinct"] / s["values"] for s in kdes) if kdes else 0.0)
    roots = [s for s in spans if s["name"] == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN} span, got {len(roots)}")
    metrics["trace.overhead_s"] = len(spans) * roots[0]["span_cost_s"]
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
