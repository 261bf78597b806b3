"""Monte-Carlo vote collection, certified-accuracy curves, and report output.

A run's votes go into one table: ``BaseVoteTable.collect`` allocates it, and
each chunk of the sample range adds its votes into it under one lock. Integer
adds commute, so the table does not depend on how the sample indices are
chunked across worker threads nor on the order the chunks finish in.

A table's counts lie in ``[0, num_samples]`` and are stored in the narrowest
signed integer type that holds ``num_samples`` (:func:`_count_dtype`); code
that reads them widens them to int64 before any arithmetic.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .certify import (abstain_test, clopper_pearson_lower, clopper_pearson_upper,
                      largest_certified_rho, margin, node_retention_probs,
                      prob_all_removed)
from .certify import margin_exclude, margin_include  # noqa: F401 (benchmark hooks)
from .graph import Graph, DataSplit
from .models import (ClassifierSpec, TrainedModel, Workspace,
                     feature_transform, predict, predict_rows,
                     train_predict_end_to_end)
from .sampling import SmoothingParams, derive_sample_seed, sample_smoothed_graph

_TRAIN_STREAM = (1 << 40) + 1
# Evasion samples are evaluated together until their non-isolated nodes fill
# this many operator rows. Capping rows rather than samples bounds memory: at
# 64 hidden units each activation block of a batch stays near 512 KiB.
_BATCH_ROWS = 1024

_MERGED_APART = ("counts", "abstains", "num_samples", "first_index", "degrees")


def _count_dtype(num_samples: int) -> np.dtype:
    """The narrowest signed integer type that holds every count of a
    ``num_samples``-sample table: int8 up to 127 samples, int16 up to
    32 767, int32 up to 2**31 - 1 and int64 beyond."""
    for dtype in (np.int8, np.int16, np.int32):
        if num_samples <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _check_sample_range(first_index: int, num_samples: int) -> None:
    # derive_sample_seed is a bijection in the index on [0, 2**64 - 1).
    if first_index < 0 or first_index + num_samples > 2**64 - 1:
        raise ValueError("sample range must lie in [0, 2**64 - 1)")


@dataclass(eq=False)
class BaseVoteTable:
    """Monte-Carlo vote counts of samples ``[first_index, first_index +
    num_samples)`` of one smoothing run and every input a certificate over
    them needs: the smoothing noise that drew the samples and each row's
    degree in the graph or rating matrix that was voted on."""

    counts: np.ndarray    # (rows, columns), in _count_dtype(num_samples)
    abstains: np.ndarray  # (rows,) int64, samples in which the row did not vote
    num_samples: int
    params: SmoothingParams
    degrees: np.ndarray   # (rows,) int64
    provenance: dict
    first_index: int = field(default=0, kw_only=True)

    def __post_init__(self):
        # Validated in the caller's integer type, then narrowed: a count
        # outside [0, num_samples] is refused, never wrapped.
        self.counts = np.asarray(self.counts)
        if self.counts.dtype.kind not in "iu":
            self.counts = self.counts.astype(np.int64)
        self.abstains = np.asarray(self.abstains, dtype=np.int64)
        self.degrees = np.asarray(self.degrees, dtype=np.int64)
        if self.counts.ndim != 2:
            raise ValueError("counts must be (rows, columns)")
        rows = (self.counts.shape[0],)
        if self.abstains.shape != rows or self.degrees.shape != rows:
            raise ValueError("abstains and degrees must hold one value per row")
        # Row reductions: no rows x columns temporary.
        if self.counts.min(initial=0) < 0 or self.abstains.min(initial=0) < 0:
            raise ValueError("vote counts must be non-negative")
        voted = self.num_samples - self.abstains
        if (voted.min(initial=0) < 0
                or np.any(self.counts.max(axis=1, initial=0) > voted)):
            raise ValueError("a row has more votes than samples it voted in")
        _check_sample_range(self.first_index, self.num_samples)
        self.counts = self.counts.astype(_count_dtype(self.num_samples),
                                         copy=False)

    @classmethod
    def collect(cls, worker: Callable[[int, int, Callable], None],
                shape: tuple[int, int], num_samples: int, first_index: int,
                threads: int, **fields):
        """The ``shape`` (rows, columns) table of samples ``[first_index,
        first_index + num_samples)``, counted by ``worker(lo, hi, add)`` over
        chunks of the range.

        This is the run's one table. ``add(votes, abstained=0, at=...)``
        adds ``votes`` to ``counts[at]`` and ``abstained`` to the per-row
        abstain counts, under one lock, so a worker keeps only what it has
        not yet added. An indexed ``at`` adds once per index: its (row,
        column) pairs must be distinct. The table is in
        :func:`_count_dtype`, so no count may exceed ``num_samples``.
        """
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        _check_sample_range(first_index, num_samples)
        counts = np.zeros(shape, dtype=_count_dtype(num_samples))
        abstains = np.zeros(shape[0], dtype=np.int64)
        lock = threading.Lock()

        def add(votes, abstained=0, at=...):
            with lock:
                counts[at] += votes
                np.add(abstains, abstained, out=abstains)

        accumulate_parallel(num_samples, first_index, threads,
                            lambda lo, hi: worker(lo, hi, add))
        return cls(counts=counts, abstains=abstains, num_samples=num_samples,
                   first_index=first_index, **fields)

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
        if (type(other) is not type(self)
                or not np.array_equal(self.degrees, other.degrees)
                or any(getattr(self, f.name) != getattr(other, f.name)
                       for f in fields(self) if f.name not in _MERGED_APART)):
            raise ValueError("vote tables come from different runs")
        lo_a, lo_b = self.first_index, other.first_index
        hi_a, hi_b = lo_a + self.num_samples, lo_b + other.num_samples
        if lo_a < hi_b and lo_b < hi_a:
            raise ValueError(f"sample ranges [{lo_a}, {hi_a}) and [{lo_b}, {hi_b}) "
                             "overlap")
        if hi_a != lo_b and hi_b != lo_a:
            raise ValueError(f"sample ranges [{lo_a}, {hi_a}) and [{lo_b}, {hi_b}) "
                             "leave a gap")
        # Added in int64, then narrowed for the summed sample count.
        return replace(self, counts=np.add(self.counts, other.counts,
                                           dtype=np.int64),
                       abstains=self.abstains + other.abstains,
                       num_samples=self.num_samples + other.num_samples,
                       first_index=min(lo_a, lo_b))


@dataclass(eq=False)
class VoteTable(BaseVoteTable):
    """Per-node, per-class vote counts of a smoothed node classifier. In
    ``"exclude"`` mode nodes isolated in a sample abstain instead of voting."""

    mode: str = "include"

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in ("include", "exclude"):
            raise ValueError("mode must be 'include' or 'exclude'")
        totals = self.counts.sum(axis=1, dtype=np.int64) + self.abstains
        if self.counts.shape[0] and not np.all(totals == self.num_samples):
            raise ValueError("per-node counts must sum to num_samples")

    @property
    def majority_classes(self) -> np.ndarray:
        return np.argmax(self.counts, axis=1)


def accumulate_parallel(num_samples: int, first_index: int, threads: int,
                        worker: Callable[[int, int], None]) -> None:
    """Run ``worker(lo, hi)`` over chunks of ``[first_index, first_index +
    num_samples)``, in any order.

    At most one worker runs per usable CPU, whatever ``threads`` asks for;
    with one, the whole range is one call on this thread. With more, this
    thread is one of the workers: it and ``workers - 1`` pool threads take
    the chunks from one list, under one lock, until none is left, so no
    thread idles while the others count. A chunk's error is raised here,
    from whichever thread ran it. Workers return nothing: each adds what it
    counts into the run's table itself.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(threads, cpus)
    if workers <= 1:
        worker(first_index, first_index + num_samples)
        return
    chunks = iter(_chunks(num_samples, first_index, min(num_samples, workers * 4)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                chunk = next(chunks, None)
            if chunk is None:
                return
            worker(*chunk)

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()


def _chunks(num_samples: int, first_index: int,
            count: int) -> list[tuple[int, int]]:
    """``count`` consecutive ``(lo, hi)`` chunks that cover ``[first_index,
    first_index + num_samples)``, in order, as equal as integers allow."""
    # Python integers, so the bounds stay exact at any first_index.
    bounds = [first_index + num_samples * c // count for c in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def collect_votes_evasion(model: TrainedModel, graph: Graph, num_samples: int,
                          params: SmoothingParams, master_seed: int, *,
                          threads: int = 1, first_index: int = 0) -> VoteTable:
    """Vote over ``num_samples`` smoothed copies of the graph with a fixed model.

    Sample ``i`` uses the seed derived from ``(master_seed, i)``, so disjoint
    index ranges can be collected independently and merged.
    """
    n = graph.n
    num_classes = model.num_classes
    transformed = feature_transform(model, graph.features)
    # A node without kept edges sees only its self-loop, so its prediction
    # is the one it gets in the edgeless graph, whatever the sample.
    isolated = predict(model, Graph(n, (), graph.features))

    def worker(lo, hi, add):
        votes = np.zeros(n * num_classes, dtype=np.int64)
        rows_of = np.empty(n, dtype=np.int64)
        # Sized for the largest batch: under _BATCH_ROWS rows plus one sample.
        workspace = Workspace(_BATCH_ROWS + n, *model.weights["w2"].shape)
        nodes, edges, rows = [], [], 0
        # Without aggregation every node votes as if isolated: no sample needed.
        for i in range(lo, hi if model.spec.aggregates else lo):
            sample = sample_smoothed_graph(graph, params,
                                           derive_sample_seed(master_seed, i))
            touched = np.flatnonzero(sample.graph.degrees)
            rows_of[touched] = np.arange(rows, rows + touched.size)
            nodes.append(touched)
            edges.append(rows_of[sample.graph.edges])
            rows += touched.size
            if rows and (rows >= _BATCH_ROWS or i == hi - 1):
                stacked = np.concatenate(nodes)
                preds = predict_rows(model, transformed, stacked,
                                     np.concatenate(edges), workspace)
                votes += np.bincount(stacked * num_classes + preds,
                                     minlength=votes.size)
                nodes, edges, rows = [], [], 0
        counts = votes.reshape(n, num_classes)
        # Every (sample, node) pair not voted above is an isolated node.
        counts[np.arange(n), isolated] += (hi - lo) - counts.sum(axis=1)
        add(counts)

    # Two trainings of one spec can give other weights, whose votes must
    # not merge: the table names the model's weights too.
    weights = hashlib.sha256()
    for name in ("w1", "b1", "w2", "b2"):
        weights.update(np.ascontiguousarray(model.weights[name]).tobytes())
    provenance = {"kind": "evasion", "master_seed": int(master_seed),
                  "graph": graph.fingerprint(), "model_graph": model.graph_fingerprint,
                  "model_spec": asdict(model.spec),
                  "model_weights": weights.hexdigest()}
    return VoteTable.collect(worker, (n, num_classes), num_samples, first_index,
                             threads, params=params, degrees=graph.degrees,
                             provenance=provenance)


def collect_votes_poisoning(spec: ClassifierSpec, graph: Graph, split: DataSplit,
                            num_samples: int, params: SmoothingParams, mode: str,
                            master_seed: int, *, threads: int = 1,
                            first_index: int = 0) -> VoteTable:
    """Vote over ``num_samples`` independent train-and-predict runs.

    Each sample trains a fresh model on its own smoothed graph (training seed
    derived from the sample seed) and predicts on it. A sample that leaves
    no training node an edge trains nothing, so every node abstains in it;
    in exclude mode each node isolated in a sample abstains as well.
    """
    if mode not in ("include", "exclude"):  # refused before any sample
        raise ValueError("mode must be 'include' or 'exclude'")
    n = graph.n
    num_classes = graph.num_classes
    include = mode == "include"

    def worker(lo, hi, add):
        counts = np.zeros((n, num_classes), dtype=np.int64)
        abstains = np.zeros(n, dtype=np.int64)
        for i in range(lo, hi):
            seed_i = derive_sample_seed(master_seed, i)
            sample = sample_smoothed_graph(graph, params, seed_i)
            spec_i = replace(spec, seed=derive_sample_seed(seed_i, _TRAIN_STREAM))
            preds = train_predict_end_to_end(spec_i, sample.graph, split)
            if preds is None:  # nothing to train on
                abstains += 1
                continue
            voting = (sample.graph.degrees > 0) | include
            counts[voting, preds[voting]] += 1
            abstains += ~voting
        add(counts, abstains)

    provenance = {"kind": "poisoning", "master_seed": int(master_seed),
                  "graph": graph.fingerprint(), "split": split.fingerprint(),
                  "model_spec": asdict(spec)}
    return VoteTable.collect(worker, (n, num_classes), num_samples, first_index,
                             threads, params=params, degrees=graph.degrees,
                             provenance=provenance, mode=mode)


@dataclass(frozen=True)
class Curve:
    """A certificate over a dense grid of the injected-node budget rho, from
    0, at edge budget ``tau``. A subclass names its ``point_type``, whose
    fields are ``rho`` and then shares, each of which lies in [0, 1] and
    does not grow with rho; the ``csv_prefix`` of its file; and the
    ``summary()`` it adds to ``report.json``."""

    tau: int
    points: tuple

    def __post_init__(self):
        for column in fields(self.point_type)[1:]:
            values = [getattr(p, column.name) for p in self.points]
            label = column.name.replace("_", " ")
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
    is certified at exactly the budgets ``0..radius``, which
    :func:`largest_certified_rho` finds from the margin. The smoothing noise,
    the mode and the degrees come from the table, and the bounds are taken
    at level ``alpha`` over its class count. The radius is -1 for abstaining
    nodes, for nodes not certified even at rho = 0 and, in exclude mode, for
    nodes isolated in the voted graph.
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

    abstained = np.array([abstain_test(int(t), int(r), alpha)
                          for t, r in zip(top, runner)], dtype=bool)
    candidates = np.flatnonzero(~abstained & ((node_degrees >= 1) | (not exclude)))
    lowers, uppers = lowers[candidates], uppers[candidates]
    # Include mode is the margin of a node that is never isolated.
    isolated, attacked = (node_retention_probs(params, node_degrees[candidates])
                          if exclude else (np.zeros(candidates.size),) * 2)

    def holds(rho, live):
        return margin(lowers[live], uppers[live], prob_all_removed(params, tau, rho),
                      isolated[live], attacked[live]) > 0.0

    radius = np.full(nodes.size, -1, dtype=np.int64)
    radius[candidates] = largest_certified_rho(holds, candidates.size)
    return abstained, majority, radius


def certified_accuracy_curve(table: VoteTable, labels, tau: int, alpha: float,
                             nodes=None) -> CertCurve:
    """Certified accuracy over a dense rho grid at a fixed edge budget.

    The accuracy at rho is the share of nodes whose majority is correct and
    whose radius (:func:`certified_radii`) reaches rho. The grid runs from 0
    to the first rho at which the all-removed probability drops to 1/2, and
    on to one past the largest radius of a correct node, so the curve always
    terminates at zero. Radii stop at the radius search's cap, so a node
    certified there reads 0 one budget past it. Abstaining nodes count
    against certified accuracy but are reported separately as the abstain
    rate; clean accuracy is majority-vote correctness ignoring
    certification.
    """
    labels, nodes = _labeled_nodes(table, labels, nodes)
    abstained, majority, radius = certified_radii(table, tau, alpha, nodes)
    correct = majority == labels[nodes]
    # The first rho at which the all-removed probability is at most 1/2.
    rho_cut = 1 + int(largest_certified_rho(
        lambda rho, _: prob_all_removed(table.params, tau, rho) > 0.5, 1)[0])
    reached = radius[correct]
    last = max(rho_cut, int(reached.max(initial=-1)) + 1)
    # Correct nodes with radius exactly r, then with radius >= r.
    exact = np.bincount(reached[reached >= 0], minlength=last + 1)
    accuracy = np.cumsum(exact[::-1])[::-1] / nodes.size
    abstain_rate = float(np.mean(abstained))
    points = tuple(CurvePoint(rho=rho, certified_accuracy=float(accuracy[rho]),
                              abstain_rate=abstain_rate)
                   for rho in range(last + 1))
    return CertCurve(tau=tau, points=points,
                     clean_accuracy=float(np.mean(correct)))


def average_certified_radius(curve: CertCurve) -> float:
    """Area under the certified accuracy curve (sum over rho >= 1)."""
    if curve.points and curve.points[-1].certified_accuracy != 0.0:
        raise ValueError("curve must terminate at certified accuracy 0")
    return math.fsum(p.certified_accuracy for p in curve.points if p.rho >= 1)


def write_report(curves: Sequence[Curve], metadata: dict, out_dir) -> list[Path]:
    """Write one CSV per curve plus a JSON summary.

    Each ``<csv_prefix><tau>.csv`` has the curve's point fields as its
    header, e.g. ``rho,certified_accuracy,abstain_rate`` in
    ``curve_tau5.csv``. The JSON carries the caller's metadata (settings,
    seeds) and each curve's summary. CSV floats have 17 significant digits;
    JSON floats the shortest spelling that reads back as the same double.
    Output is a pure function of the inputs, so identical runs produce
    identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written, summaries = [], []
    for curve in curves:
        csv_path = out / f"{curve.csv_prefix}{curve.tau}.csv"
        names = [f.name for f in fields(curve.point_type)]
        lines = [",".join(names)] + [
            ",".join([str(p.rho)] + ["%.17g" % getattr(p, n) for n in names[1:]])
            for p in curve.points]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(csv_path)
        summaries.append({"tau": curve.tau, **curve.summary(),
                          "csv": csv_path.name})
    report_path = out / "report.json"
    report = {"metadata": metadata, "curves": summaries}
    report_path.write_text(
        json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8")
    written.append(report_path)
    return written
