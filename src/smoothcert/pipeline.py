"""Monte-Carlo vote collection, certified-accuracy curves, and report output.

Vote accumulation is an associative, commutative integer merge, so results do
not depend on how sample indices are chunked across worker threads.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .certify import (RHO_CAP, abstain_test,
                      clopper_pearson_lower, clopper_pearson_upper, margin_exclude,
                      margin_include, node_retention_probs, prob_all_removed)
from .graph import Graph, DataSplit, PerturbationBudget
from .models import (ClassifierSpec, TrainedModel, feature_transform, predict,
                     predict_rows, train_predict_end_to_end)
from .sampling import SmoothingParams, derive_sample_seed, sample_smoothed_graph

_TRAIN_STREAM = (1 << 40) + 1
# Evasion samples are evaluated together until their non-isolated nodes fill
# this many operator rows. Capping rows rather than samples bounds memory: at
# 64 hidden units each activation block of a batch stays near 512 KiB.
_BATCH_ROWS = 1024

_MERGE_IGNORED_KEYS = ("first_index", "num_samples")  # of the provenance
_MERGED_APART = ("counts", "abstains", "num_samples", "degrees", "provenance")


@dataclass(eq=False)
class BaseVoteTable:
    """Monte-Carlo vote counts of one smoothing run and every input a
    certificate over them needs: the smoothing noise that drew the samples
    and each row's degree in the graph or rating matrix that was voted on."""

    counts: np.ndarray    # (rows, columns) int64
    abstains: np.ndarray  # (rows,) int64, samples in which the row did not vote
    num_samples: int
    params: SmoothingParams
    degrees: np.ndarray   # (rows,) int64
    provenance: dict

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.abstains = np.asarray(self.abstains, dtype=np.int64)
        self.degrees = np.asarray(self.degrees, dtype=np.int64)
        if self.counts.ndim != 2:
            raise ValueError("counts must be (rows, columns)")
        rows = (self.counts.shape[0],)
        if self.abstains.shape != rows or self.degrees.shape != rows:
            raise ValueError("abstains and degrees must hold one value per row")
        if np.any(self.counts < 0) or np.any(self.abstains < 0):
            raise ValueError("vote counts must be non-negative")
        voted = self.num_samples - self.abstains
        if np.any(voted < 0) or np.any(self.counts > voted[:, None]):
            raise ValueError("a row has more votes than samples it voted in")

    def checked_rows(self, ids) -> np.ndarray:
        """``ids`` as an int64 array of row ids, each in ``[0, rows)``."""
        ids, rows = np.asarray(ids, dtype=np.int64), self.counts.shape[0]
        if np.any((ids < 0) | (ids >= rows)):
            raise ValueError(f"row ids must lie in [0, {rows})")
        return ids

    def merged(self, other: "BaseVoteTable") -> "BaseVoteTable":
        """Combine adjacent sample ranges of the same run into one table.

        The ranges ``[first_index, first_index + num_samples)`` of the two
        tables must meet end to start, in either order. Merging a table with
        itself, overlapping ranges or ranges with a gap between them raises
        ``ValueError``: the first two would count samples twice and the
        third would record a range that never ran. So do tables whose noise,
        mode, ``k_prime``, degrees or provenance differ.
        """
        if other is self:
            raise ValueError("cannot merge a vote table with itself")
        if self.counts.shape != other.counts.shape:
            raise ValueError("vote tables cover different graphs")
        a = {k: v for k, v in self.provenance.items() if k not in _MERGE_IGNORED_KEYS}
        b = {k: v for k, v in other.provenance.items() if k not in _MERGE_IGNORED_KEYS}
        if (type(other) is not type(self) or a != b
                or not np.array_equal(self.degrees, other.degrees)
                or any(getattr(self, f.name) != getattr(other, f.name)
                       for f in fields(self) if f.name not in _MERGED_APART)):
            raise ValueError("vote tables come from different runs")
        lo_a = self.provenance.get("first_index", 0)
        lo_b = other.provenance.get("first_index", 0)
        hi_a, hi_b = lo_a + self.num_samples, lo_b + other.num_samples
        if lo_a < hi_b and lo_b < hi_a:
            raise ValueError(f"sample ranges [{lo_a}, {hi_a}) and [{lo_b}, {hi_b}) "
                             "overlap")
        if hi_a != lo_b and hi_b != lo_a:
            raise ValueError(f"sample ranges [{lo_a}, {hi_a}) and [{lo_b}, {hi_b}) "
                             "leave a gap")
        num_samples = self.num_samples + other.num_samples
        return replace(self, counts=self.counts + other.counts,
                       abstains=self.abstains + other.abstains,
                       num_samples=num_samples,
                       provenance=dict(self.provenance, num_samples=num_samples,
                                       first_index=min(lo_a, lo_b)))


@dataclass(eq=False)
class VoteTable(BaseVoteTable):
    """Per-node, per-class vote counts of a smoothed node classifier. In
    ``"exclude"`` mode nodes isolated in a sample abstain instead of voting."""

    mode: str = "include"

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in ("include", "exclude"):
            raise ValueError("mode must be 'include' or 'exclude'")
        totals = self.counts.sum(axis=1) + self.abstains
        if self.counts.shape[0] and not np.all(totals == self.num_samples):
            raise ValueError("per-node counts must sum to num_samples")

    @property
    def majority_classes(self) -> np.ndarray:
        return np.argmax(self.counts, axis=1)


def accumulate_parallel(num_samples: int, first_index: int, threads: int,
                        worker: Callable[[int, int], tuple[np.ndarray, np.ndarray]]):
    """Run ``worker(lo, hi)`` over a chunked index range and sum the results.

    At most one worker runs per usable CPU, whatever ``threads`` asks for.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, cpus)
    if workers <= 1:
        return worker(first_index, first_index + num_samples)
    chunk_count = min(num_samples, workers * 4)
    # Python integers, so the bounds stay exact at any first_index.
    bounds = [first_index + num_samples * c // chunk_count
              for c in range(chunk_count + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(worker, bounds[:-1], bounds[1:])
        counts, abstains = next(parts)
        # Summed as they arrive, so the finished chunks are not all held.
        for chunk_counts, chunk_abstains in parts:
            counts += chunk_counts
            abstains += chunk_abstains
    return counts, abstains


def collect_votes_evasion(model: TrainedModel, graph: Graph, num_samples: int,
                          params: SmoothingParams, master_seed: int, *,
                          threads: int = 1, first_index: int = 0) -> VoteTable:
    """Vote over ``num_samples`` smoothed copies of the graph with a fixed model.

    Sample ``i`` uses the seed derived from ``(master_seed, i)``, so disjoint
    index ranges can be collected independently and merged.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    n = graph.n
    num_classes = model.num_classes
    transformed = feature_transform(model, graph.features)
    # A node without kept edges sees only its self-loop, so its prediction
    # is the one it gets in the edgeless graph, whatever the sample.
    isolated = predict(model, Graph(n, (), graph.features), transformed)
    aggregates = model.spec.kind == "message_passing_2layer"

    def worker(lo, hi):
        votes = np.zeros(n * num_classes, dtype=np.int64)
        rows_of = np.empty(n, dtype=np.int64)
        nodes, edges, rows = [], [], 0
        for i in range(lo, hi):
            sample = sample_smoothed_graph(graph, params,
                                           derive_sample_seed(master_seed, i))
            if not aggregates:
                continue
            touched = np.flatnonzero(sample.graph.degrees)
            rows_of[touched] = np.arange(rows, rows + touched.size)
            nodes.append(touched)
            edges.append(rows_of[sample.graph.edges])
            rows += touched.size
            if rows and (rows >= _BATCH_ROWS or i == hi - 1):
                stacked = np.concatenate(nodes)
                preds = predict_rows(model, transformed, stacked,
                                     np.concatenate(edges))
                votes += np.bincount(stacked * num_classes + preds,
                                     minlength=votes.size)
                nodes, edges, rows = [], [], 0
        counts = votes.reshape(n, num_classes)
        # Every (sample, node) pair not voted above is an isolated node.
        counts[np.arange(n), isolated] += (hi - lo) - counts.sum(axis=1)
        return counts, np.zeros(n, dtype=np.int64)

    counts, abstains = accumulate_parallel(num_samples, first_index, threads, worker)
    provenance = {
        "kind": "evasion", "master_seed": int(master_seed),
        "first_index": int(first_index), "num_samples": int(num_samples),
        "graph": graph.fingerprint(),
        "model_graph": model.graph_fingerprint, "model_spec": asdict(model.spec),
    }
    return VoteTable(counts=counts, abstains=abstains, num_samples=num_samples,
                     params=params, degrees=graph.degrees, provenance=provenance)


def collect_votes_poisoning(spec: ClassifierSpec, graph: Graph, split: DataSplit,
                            num_samples: int, params: SmoothingParams, mode: str,
                            master_seed: int, *, threads: int = 1,
                            first_index: int = 0) -> VoteTable:
    """Vote over ``num_samples`` independent train-and-predict runs.

    Each sample trains a fresh model on its own smoothed graph (training seed
    derived from the sample seed) and predicts on it. In exclude mode nodes
    isolated in a sample abstain instead of voting.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    n = graph.n
    num_classes = graph.num_classes

    def worker(lo, hi):
        counts = np.zeros((n, num_classes), dtype=np.int64)
        abstains = np.zeros(n, dtype=np.int64)
        rows = np.arange(n)
        for i in range(lo, hi):
            seed_i = derive_sample_seed(master_seed, i)
            sample = sample_smoothed_graph(graph, params, seed_i)
            spec_i = replace(spec, seed=derive_sample_seed(seed_i, _TRAIN_STREAM))
            preds, abstain = train_predict_end_to_end(spec_i, sample, split, mode)
            voting = ~abstain
            counts[rows[voting], preds[voting]] += 1
            abstains[abstain] += 1
        return counts, abstains

    counts, abstains = accumulate_parallel(num_samples, first_index, threads, worker)
    provenance = {
        "kind": "poisoning", "master_seed": int(master_seed),
        "first_index": int(first_index), "num_samples": int(num_samples),
        "graph": graph.fingerprint(),
        "split": split.fingerprint(), "model_spec": asdict(spec),
    }
    return VoteTable(counts=counts, abstains=abstains, num_samples=num_samples,
                     params=params, degrees=graph.degrees, provenance=provenance,
                     mode=mode)


@dataclass(frozen=True)
class Curve:
    """A certificate over a dense grid of the injected-node budget rho, from
    0, at edge budget ``tau``. A subclass names its ``point_type``, whose
    fields are ``rho`` and then the certified share, which lies in [0, 1]
    and does not grow with rho; the ``csv_prefix`` of its file; and the
    ``summary()`` it adds to ``report.json``."""

    tau: int
    points: tuple

    def __post_init__(self):
        certified = fields(self.point_type)[1].name
        values = [getattr(p, certified) for p in self.points]
        label = certified.replace("_", " ")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError(f"{label} must lie in [0, 1]")
        if any(a > b + 1e-15 for a, b in zip(values[1:], values[:-1])):
            raise ValueError(f"{label} must be non-increasing in rho")


@dataclass(frozen=True)
class CurvePoint:
    rho: int
    certified_accuracy: float
    abstain_rate: float


@dataclass(frozen=True)
class CertCurve(Curve):
    """Certified accuracy as a function of the injected-node budget."""

    clean_accuracy: float

    point_type = CurvePoint
    csv_prefix = "curve_tau"

    def summary(self) -> dict:
        return {
            "clean_accuracy": self.clean_accuracy,
            "average_certified_radius": average_certified_radius(self),
            "abstain_rate": self.points[0].abstain_rate if self.points else 0.0,
            "max_rho": self.points[-1].rho if self.points else 0,
        }


def _labeled_nodes(table, labels, nodes):
    """The labels and the evaluated node ids: labeled rows of the table."""
    labels = np.asarray(labels, dtype=np.int64)
    if nodes is None:
        nodes = np.flatnonzero(labels >= 0)
    nodes = table.checked_rows(nodes)
    if nodes.size == 0:
        raise ValueError("no nodes to evaluate")
    if np.any(labels[nodes] < 0):
        raise ValueError("labels required for every evaluated node")
    return labels, nodes


def certified_radii(table: VoteTable, tau: int, alpha: float, nodes):
    """Each node's certificate over the injected-node budget at edge budget tau.

    Returns three arrays over ``nodes``: the abstain flag, the majority class
    and the radius, the largest rho at which the majority is certified. A
    margin positive at some rho is positive at every smaller rho, so a node
    is certified at exactly the budgets ``0..radius``; the scan stops at the
    first margin <= 0 and at ``RHO_CAP``. The smoothing noise, the mode and
    the degrees come from the table, and the bounds are taken at level
    ``alpha`` over its class count. The radius is -1 for abstaining nodes,
    for nodes not certified even at rho = 0 and, in exclude mode, for nodes
    isolated in the voted graph.
    """
    params = table.params
    params.require_certifiable()
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if table.counts.shape[1] < 2:
        raise ValueError("certification needs at least two classes")
    nodes = table.checked_rows(nodes)
    exclude = table.mode == "exclude"
    node_degrees = table.degrees[nodes]
    counts = table.counts[nodes]
    rows = np.arange(nodes.size)
    majority = np.argmax(counts, axis=1)
    top = counts[rows, majority]
    counts[rows, majority] = -1
    runner = counts.max(axis=1)
    level = alpha / table.counts.shape[1]
    lowers = clopper_pearson_lower(top, table.num_samples, level)
    uppers = clopper_pearson_upper(runner, table.num_samples, level)

    margin = margin_exclude if exclude else margin_include
    removed = []  # prob_all_removed at rho = 0, 1, ...
    abstained = np.empty(nodes.size, dtype=bool)
    radius = np.full(nodes.size, -1, dtype=np.int64)
    for j in range(nodes.size):
        abstained[j] = abstain_test(int(top[j]), int(runner[j]), alpha)
        if abstained[j] or (exclude and node_degrees[j] < 1):
            continue
        retention = (node_retention_probs(params, int(node_degrees[j]))
                     if exclude else ())
        rho = 0
        while rho <= RHO_CAP:
            if rho == len(removed):
                removed.append(prob_all_removed(params, tau, rho))
            if margin(lowers[j], uppers[j], removed[rho], *retention) <= 0.0:
                break
            rho += 1
        radius[j] = rho - 1
    return abstained, majority, radius


def certified_accuracy_curve(table: VoteTable, labels, tau: int, alpha: float,
                             nodes=None) -> CertCurve:
    """Certified accuracy over a dense rho grid at a fixed edge budget.

    The accuracy at rho is the share of nodes whose majority is correct and
    whose radius (:func:`certified_radii`) reaches rho. The grid runs from 0
    to the first rho at which the all-removed probability drops to 1/2,
    extended while any node still certifies, under a hard cap, so the curve
    always terminates at zero. Abstaining nodes count against certified
    accuracy but are reported separately as the abstain rate; clean accuracy
    is majority-vote correctness ignoring certification.
    """
    labels, nodes = _labeled_nodes(table, labels, nodes)
    abstained, majority, radius = certified_radii(table, tau, alpha, nodes)
    correct = majority == labels[nodes]
    rho_cut = 1
    while (prob_all_removed(table.params, tau, rho_cut) > 0.5
           and rho_cut < RHO_CAP):
        rho_cut += 1
    reached = radius[correct]
    last = min(RHO_CAP, max(rho_cut, int(reached.max(initial=-1)) + 1))
    # Correct nodes with radius exactly r, then with radius >= r.
    exact = np.bincount(reached[reached >= 0], minlength=last + 1)
    accuracy = np.cumsum(exact[::-1])[::-1] / nodes.size
    abstain_rate = float(np.mean(abstained))
    points = tuple(CurvePoint(rho=rho, certified_accuracy=float(accuracy[rho]),
                              abstain_rate=abstain_rate)
                   for rho in range(last + 1))
    return CertCurve(tau=tau, points=points,
                     clean_accuracy=float(np.mean(correct)))


def certified_accuracy_at(table: VoteTable, labels, budget: PerturbationBudget,
                          alpha: float, nodes=None) -> float:
    """Certified accuracy at a single budget: one point of the curve."""
    labels, nodes = _labeled_nodes(table, labels, nodes)
    _, majority, radius = certified_radii(table, budget.tau, alpha, nodes)
    return float(np.mean((majority == labels[nodes]) & (radius >= budget.rho)))


def average_certified_radius(curve: CertCurve) -> float:
    """Area under the certified accuracy curve (sum over rho >= 1)."""
    if curve.points and curve.points[-1].certified_accuracy != 0.0:
        raise ValueError("curve must terminate at certified accuracy 0")
    return math.fsum(p.certified_accuracy for p in curve.points if p.rho >= 1)


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless round-trip)."""
    return "%.17g" % float(x)


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with sorted keys and 17-significant-digit floats."""
    import json as _json

    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None or isinstance(obj, (bool, str)):
        return _json.dumps(obj)
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError("reports may not contain non-finite numbers")
        return format_float(value)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + render_json(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{_json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])))
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_report(curves: Sequence[Curve], metadata: dict, out_dir) -> list[Path]:
    """Write one CSV per curve plus a JSON summary.

    Each ``<csv_prefix><tau>.csv`` has the curve's point fields as its
    header, e.g. ``rho,certified_accuracy,abstain_rate`` in
    ``curve_tau5.csv``. The JSON carries the caller's metadata (settings,
    seeds) and each curve's summary. Output is a pure function of the
    inputs, so identical runs produce identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written, summaries = [], []
    for curve in curves:
        csv_path = out / f"{curve.csv_prefix}{curve.tau}.csv"
        names = [f.name for f in fields(curve.point_type)]
        lines = [",".join(names)] + [
            ",".join([str(p.rho)] + [format_float(getattr(p, n)) for n in names[1:]])
            for p in curve.points]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(csv_path)
        summaries.append({"tau": curve.tau, **curve.summary(),
                          "csv": csv_path.name})
    report_path = out / "report.json"
    report_path.write_text(
        render_json({"metadata": metadata, "curves": summaries}) + "\n",
        encoding="utf-8")
    written.append(report_path)
    return written
