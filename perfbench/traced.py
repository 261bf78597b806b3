"""Traced run of one workload, with per-layer timings taken from outside.

Usage: python3 perfbench/traced.py <workload> <seed> <fixture-dir> <out-dir>
           <spans.json> <result.json>

Wraps the public functions of graph, sampling, models, pipeline, certify and
recsys at the module names their callers look them up under, runs
``smoothcert.cli.main`` once, then removes the wrappers and runs the
cross-checks untraced. Spans stay in memory and are written to
``spans.json`` when the run ends; the per-layer metrics and the cross-check
verdicts go to ``result.json``. No file under ``src/`` is touched.
"""
from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time

import numpy as np

from smoothcert import cli, models, pipeline, recsys, sampling
from workloads import WORKLOADS

TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


class Tracer:
    """In-memory spans: name, start, end, parent span and the run id.

    A worker thread starts with an empty stack; its spans take as parent the
    innermost span open on the thread that created the tracer, which is the
    vote-collection span that started the pool.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        """Record a span around every call of ``module.attr``."""
        original = getattr(module, attr)
        spans, main_stack, next_id = self.spans, self._main_stack, self._next_id

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span_id = next_id()
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            attrs = annotate(args, kwargs, result) if annotate else None
            spans.append((span_id, name, start, end, parent, attrs))
            return result

        self._patch(module, attr, original, traced)

    def count(self, module, attr: str, classify) -> None:
        """Count calls of ``module.attr`` under the keys ``classify`` returns."""
        original = getattr(module, attr)
        counters = self.counters

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            for key in classify(args, result):
                counters[key] = counters.get(key, 0) + 1
            return result

        self._patch(module, attr, original, counted)

    def _patch(self, module, attr, original, replacement) -> None:
        setattr(module, attr, replacement)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def durations(self, name: str, where=None) -> list:
        return [(s[3] - s[2]) / 1e9 for s in self.spans
                if s[1] == name and (where is None or where(s))]

    def dump(self, path: str) -> None:
        fields = ("id", "name", "start_ns", "end_ns", "parent", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "spans": [dict(zip(fields, s)) for s in self.spans]}, fh)


def _graph_sample(args, kwargs, result):
    return {"input": int(args[0].num_edges), "kept": int(result.graph.num_edges),
            "n": int(args[0].n)}


def _ratings_sample(args, kwargs, result):
    return {"input": int(args[0].nnz), "kept": int(result[0].nnz)}


def _margin(args, result):
    # prob_all_removed is exactly 1.0 at rho = 0 and below 1 for rho >= 1.
    if args[2] == 1.0 and result > 0.0:
        return ("margin_evals", "certified_rho0")
    return ("margin_evals",)


def install(tracer: Tracer, captured: dict) -> None:
    """Wrap the public calls of each layer where the CLI path calls them."""
    def keep(key):
        def annotate(args, kwargs, result):
            captured[key] = (args, kwargs, result)
        return annotate

    tracer.wrap(cli, "load_node_classification_dataset", "graph.load")
    tracer.wrap(cli, "load_interaction_dataset", "graph.load")
    tracer.wrap(cli, "train_with_noise", "models.train", keep("train"))
    for attr in ("collect_votes_evasion", "collect_votes_poisoning",
                 "collect_item_votes"):
        tracer.wrap(cli, attr, "pipeline.votes", keep("votes"))
    tracer.wrap(cli, "certified_accuracy_curve", "pipeline.curve",
                lambda a, k, r: {"points": len(r.points), "nodes": len(k["nodes"])})
    tracer.wrap(cli, "recommender_curve", "recsys.curve",
                lambda a, k, r: {"points": len(r.points)})
    tracer.wrap(cli, "write_report", "pipeline.report")
    tracer.wrap(cli, "write_recommender_report", "pipeline.report")

    tracer.wrap(sampling, "Graph", "graph.rebuild")
    tracer.wrap(sampling, "InteractionMatrix", "graph.rebuild")
    tracer.wrap(pipeline, "sample_smoothed_graph", "sampling.sample", _graph_sample)
    tracer.wrap(recsys, "sample_smoothed_ratings", "sampling.sample", _ratings_sample)
    tracer.wrap(pipeline, "predict", "models.predict")
    tracer.wrap(pipeline, "train_predict_end_to_end", "models.train_predict")
    tracer.wrap(pipeline, "abstain_test", "certify.abstain",
                lambda a, k, r: {"abstain": bool(r)})
    tracer.wrap(pipeline, "clopper_pearson_lower", "certify.bounds_lower")
    tracer.wrap(pipeline, "clopper_pearson_upper", "certify.bounds_upper")
    tracer.count(pipeline, "margin_include", _margin)
    tracer.count(pipeline, "margin_exclude", _margin)
    tracer.wrap(recsys, "build_similarity", "recsys.similarity")
    tracer.wrap(recsys, "recommend_topk", "recsys.topk")
    tracer.wrap(recsys, "certify_user_overlap", "recsys.certify_user",
                lambda a, k, r: {"rho": int(a[5].rho)})


def per_call(values: list) -> dict:
    """Median, highest percentile with >= 10 samples beyond it, and count."""
    values = sorted(values)
    out = {"median": statistics.median(values), "count": len(values)}
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * len(values))
        if len(values) - rank >= 10:
            out["tail"], out["tail_pct"] = values[rank - 1], pct
            break
    return out


def layer_metrics(tracer: Tracer, captured: dict) -> dict:
    """Per-layer metrics of the traced run, keyed by metric name.

    Each entry is ``{"value", "unit"}``, plus ``tail``, ``tail_pct`` and
    ``count`` for per-call timings. Layers the workload does not run are
    left out.
    """
    metrics = {}
    ids = {s[0]: s for s in tracer.spans}

    def timing(name, values, unit):
        if values:
            stats = per_call(values)
            metrics[name] = {"value": stats.pop("median"), "unit": unit, **stats}

    def scaled(span, scale, where=None):
        return [v * scale for v in tracer.durations(span, where)]

    def single(name, span, unit="s"):
        values = tracer.durations(span)
        if values:
            metrics[name] = {"value": sum(values), "unit": unit}

    def under(parent_name):
        return lambda s: s[4] is not None and ids[s[4]][1] == parent_name

    single("graph.load_s", "graph.load")
    timing("graph.rebuild_us", scaled("graph.rebuild", 1e6, under("sampling.sample")),
           "us")
    timing("sampling.sample_us", scaled("sampling.sample", 1e6), "us")
    metrics["sampling.sample_us.count"] = {
        "value": metrics["sampling.sample_us"]["count"], "unit": "count"}
    samples = [s[5] for s in tracer.spans if s[1] == "sampling.sample"]
    metrics["sampling.edge_keep_ratio"] = {
        "value": sum(a["kept"] for a in samples) / sum(a["input"] for a in samples),
        "unit": "ratio"}
    if "n" in samples[0]:
        metrics["models.agg_nnz"] = {
            "value": statistics.fmean(2 * a["kept"] + a["n"] for a in samples),
            "unit": "count"}
    timing("models.predict_us", scaled("models.predict", 1e6), "us")
    single("models.train_s", "models.train")
    timing("models.train_predict_ms", scaled("models.train_predict", 1e3), "ms")

    votes_s = sum(tracer.durations("pipeline.votes"))
    table = captured["votes"][2]
    metrics["pipeline.votes_s"] = {"value": votes_s, "unit": "s"}
    metrics["pipeline.votes_per_s"] = {"value": table.num_samples / votes_s,
                                       "unit": "1/s"}
    metrics["pipeline.per_sample_us"] = {"value": votes_s / table.num_samples * 1e6,
                                         "unit": "us"}
    curve_span = "recsys.curve" if tracer.durations("recsys.curve") else "pipeline.curve"
    timing("pipeline.curve_s", tracer.durations(curve_span), "s")
    single("pipeline.report_s", "pipeline.report")

    timing("certify.abstain_us", scaled("certify.abstain", 1e6), "us")
    # The curve bounds each node with one lower then one upper call.
    timing("certify.bounds_us",
           [lo + up for lo, up in zip(scaled("certify.bounds_lower", 1e6),
                                      scaled("certify.bounds_upper", 1e6))], "us")
    curves = [s[5] for s in tracer.spans if s[1] == curve_span]
    metrics["certify.rho_points"] = {"value": sum(c["points"] for c in curves),
                                     "unit": "count"}
    if curve_span == "pipeline.curve":
        evaluated = sum(c["nodes"] for c in curves)
        abstains = [s[5]["abstain"] for s in tracer.spans if s[1] == "certify.abstain"]
        counters = tracer.counters
        metrics["certify.margin_evals"] = {"value": counters.get("margin_evals", 0),
                                           "unit": "count"}
        metrics["certify.certified_ratio"] = {
            "value": counters.get("certified_rho0", 0) / evaluated, "unit": "ratio"}
        metrics["certify.abstain_ratio"] = {"value": sum(abstains) / len(abstains),
                                            "unit": "ratio"}
    else:
        metrics["recsys.curve_s"] = dict(metrics["pipeline.curve_s"])
        timing("recsys.similarity_ms", scaled("recsys.similarity", 1e3), "ms")
        timing("recsys.topk_us", scaled("recsys.topk", 1e6), "us")
        timing("recsys.certify_user_ms",
               scaled("recsys.certify_user", 1e3, lambda s: s[5]["rho"] == 0), "ms")
        metrics["recsys.vote_table_mb"] = {"value": table.counts.nbytes / 2**20,
                                           "unit": "MB"}
    metrics["trace.stage_total_s"] = {
        "value": sum((s[3] - s[2]) / 1e9 for s in tracer.spans if s[4] is None),
        "unit": "s"}
    return metrics


def _call_with(fn, captured_call, **overrides):
    args, kwargs, _ = captured_call
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.arguments.update(overrides)
    return fn(*bound.args, **bound.kwargs)


def cross_checks(workload, captured: dict) -> tuple[dict, list]:
    """Untraced checks: thread invariance and, for evasion, a sample replay."""
    failures = []
    collect = {"certify-evasion": pipeline.collect_votes_evasion,
               "certify-poison": pipeline.collect_votes_poisoning,
               "certify-recsys": recsys.collect_item_votes}[workload.flags[0]]
    m = workload.check_samples
    timed = {}
    tables = {}
    for threads in (1, 2):
        started = time.perf_counter()
        tables[threads] = _call_with(collect, captured["votes"], num_samples=m,
                                     threads=threads, first_index=0)
        timed[threads] = time.perf_counter() - started
    if not (np.array_equal(tables[1].counts, tables[2].counts)
            and np.array_equal(tables[1].abstains, tables[2].abstains)):
        failures.append(f"votes over samples 0..{m - 1} differ between "
                        "threads=1 and threads=2")
    metrics = {"pipeline.thread_speedup": {"value": timed[1] / timed[2],
                                           "unit": "ratio"}}

    if workload.flags[0] == "certify-evasion":
        model = captured["train"][2]
        args = inspect.signature(collect).bind(*captured["votes"][0],
                                               **captured["votes"][1]).arguments
        graph, params, seed = args["graph"], args["params"], args["master_seed"]
        counts = np.zeros_like(tables[1].counts)
        rows = np.arange(graph.n)
        for i in range(m):
            sample = sampling.sample_smoothed_graph(
                graph, params, sampling.derive_sample_seed(seed, i))
            counts[rows, models.predict(model, sample.graph)] += 1
        if not np.array_equal(counts, tables[1].counts):
            failures.append(f"replaying samples 0..{m - 1} through "
                            "sample_smoothed_graph and predict does not "
                            "reproduce collect_votes_evasion")
    return metrics, failures


def main(argv) -> int:
    name, seed, fixture_dir, out_dir, spans_path, result_path = argv
    workload = WORKLOADS[name]
    cli_argv = workload.argv(fixture_dir, out_dir, int(seed))
    tracer = Tracer(run_id=f"{name}-seed{seed}-pid{os.getpid()}")
    captured = {}
    install(tracer, captured)

    started = time.perf_counter()
    code = cli.main(cli_argv)
    traced_wall = time.perf_counter() - started
    tracer.uninstall()
    if code != 0:
        return code

    metrics = layer_metrics(tracer, captured)
    metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    check_metrics, failures = cross_checks(workload, captured)
    metrics.update(check_metrics)
    tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "failures": failures}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
