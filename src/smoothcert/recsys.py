"""Item-similarity recommender, its smoothed top-K wrapper, and the
worst-case overlap certificate with certified precision/recall.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .graph import InteractionMatrix, PerturbationBudget
from .models import add_sparse_product
from .pipeline import BaseVoteTable, Curve, write_report
from .sampling import SmoothingParams, derive_sample_seed, sample_smoothed_ratings
from .certify import (clopper_pearson_lower, clopper_pearson_upper,
                      largest_certified_rho, prob_all_removed_recsys)


# Item columns per block of top_items' scores, and item rows per slab of a
# block's Jaccard similarity.
_RANK_COLUMNS = 256
_OVERLAP_ROWS = 64      # table rows per block of the overlap certificate's counts
_OVERLAP_BOUNDS = 1024  # (user, r) rows per block of its Clopper-Pearson uppers


def _histories(matrix: InteractionMatrix) -> sp.csr_matrix:
    """Users x items 0/1 matrix; each row holds the user's items ascending."""
    return sp.csr_matrix((np.ones(matrix.nnz), tuple(matrix.pairs.T)),
                         shape=(matrix.users, matrix.items))


def _by_item(histories: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """Items x users CSR of ``histories`` and each item's rating count,
    floored at 1."""
    by_item = histories.T.tocsr()
    counts = np.asarray(by_item.sum(axis=1), dtype=np.float64).ravel()
    return by_item, np.maximum(counts, 1.0, out=counts)


def _jaccard_slab(by_item: sp.csr_matrix, counts: np.ndarray, row: int, lo: int,
                  rated: np.ndarray, out: np.ndarray,
                  union: np.ndarray) -> np.ndarray:
    """Rows ``row:row + _RANK_COLUMNS`` and columns ``lo:lo + width`` of the
    item x item Jaccard similarity, written into the head of the flat
    buffer ``out`` as a C-contiguous array and returned, where ``rated`` is
    ``histories[:, lo:lo + width]`` as a dense 0/1 array and ``union`` is a
    flat buffer as large as ``out``.

    The similarity at ``(i, j)`` is ``both / ((count[i] + count[j]) - both)``
    over the co-occurrence counts; all three are integer sums, exact in any
    order. An item without ratings co-occurs with none, so flooring its
    count at 1 (:func:`_by_item`) only turns a 0 / 0 into 0 / 2 and a
    0 / c into 0 / (c + 1), +0.0 either way, with no ``maximum`` pass;
    every other denominator is already >= 1.
    """
    hi = min(row + _RANK_COLUMNS, counts.size)
    width = rated.shape[1]
    both = _block(out, hi - row, width)
    both.fill(0.0)
    add_sparse_product(by_item, rated, both, row, hi)
    denominator = _block(union, hi - row, width)
    np.add.outer(counts[row:hi], counts[lo:lo + width], out=denominator)
    denominator -= both
    both /= denominator
    return both


class _RunningTop:
    """Each row's ``k_prime`` highest positive scores over column blocks
    merged one at a time, ties toward the lower item id; ``top`` holds the
    items so far, padded with -1.

    Each block is merged with the running top-K' in one reused buffer:
    ``np.partition`` finds the K'-th score and only the candidates at or
    above it are sorted. :meth:`start` ranks afresh on the leading rows.
    """

    def __init__(self, rows: int, k_prime: int, width: int):
        if k_prime < 1:
            raise ValueError("k_prime must be >= 1")
        self.k_prime = k_prime
        self._top = np.empty((rows, k_prime), dtype=np.int64)
        # The running top-K' scores, then the block's: one row per user.
        self._scores = np.empty((rows, k_prime + width))
        self._partitioned = np.empty_like(self._scores)
        self._candidate = np.empty(self._scores.shape, dtype=bool)
        self.start(rows)

    def start(self, rows: int) -> None:
        """Rank the leading ``rows`` rows, with nothing merged yet."""
        self.top = self._top[:rows]
        self.top.fill(-1)
        self.scores = self._scores[:rows]
        self.scores[:, :self.k_prime] = 0.0
        self.partitioned = self._partitioned[:rows]
        self.candidate = self._candidate[:rows]

    def merge(self, lo: int, score: np.ndarray) -> None:
        """Merge the scores of item columns ``lo:lo + score.shape[1]``."""
        k = self.k_prime
        width = k + score.shape[1]
        scores = self.scores[:, :width]
        scores[:, k:] = score
        partitioned = self.partitioned[:, :width]
        partitioned[...] = scores
        partitioned.partition(width - k, axis=1)
        # Scores are >= 0, so at least the smallest positive float is > 0.
        cut = np.maximum(partitioned[:, width - k:width - k + 1], 5e-324,
                         out=partitioned[:, width - k:width - k + 1])
        row, col = np.nonzero(np.greater_equal(scores, cut,
                                               out=self.candidate[:, :width]))
        value = scores[row, col]
        item = col + (lo - k)  # a block column's item, or the running
        running = col < k      # top-K' item that a first column holds
        item[running] = self.top[row[running], col[running]]
        order = np.lexsort((item, -value, row))
        row = row[order]
        rank = np.arange(row.size) - np.searchsorted(row, row)
        kept = rank < k
        row, rank = row[kept], rank[kept]
        scores[:, :k] = 0.0
        self.top.fill(-1)
        scores[row, rank] = value[order][kept]
        self.top[row, rank] = item[order][kept]


def _block(buffer: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The head of the flat ``buffer`` as a C-contiguous rows x width array."""
    return buffer[:rows * width].reshape(rows, width)


class _RankingWorkspace:
    """The buffers of :func:`top_items` for up to ``users`` users over
    ``items`` items at ``k_prime``; a call on fewer users uses the leading
    rows."""

    def __init__(self, users: int, items: int, k_prime: int):
        width = min(_RANK_COLUMNS, items)
        self.users, self.items = users, items
        self.ranking = _RunningTop(users, k_prime, width)
        self.rated, self.score = np.empty(users * width), np.empty(users * width)
        self.similarity, self.union = np.empty(width * width), np.empty(width * width)


def top_items(histories: sp.csr_matrix, k_prime: int,
              workspace: _RankingWorkspace | None = None) -> np.ndarray:
    """Each user's top ``k_prime`` items by summed Jaccard similarity to the
    history, the similarity taken over these same histories.

    ``histories`` is a users x items 0/1 CSR with each row's items ascending.
    The scores are ranked one block of item columns at a time. A block's
    similarity is made one slab of item rows at a time
    (:func:`_jaccard_slab`), and each slab is added into the block's scores
    at once, as the product of the histories' columns of the slab's items
    (:func:`models.add_sparse_product`): each user's similarities are added
    in history order, the order of one whole product. History items and
    zero-score items are never ranked and ties break toward the lower item
    id; rows are padded with -1. Memory is O((users + slab) x block), never
    items x block, and every block writes into the buffers of one
    workspace: a fresh one, or the ``workspace`` of earlier calls, whose
    buffers the returned array shares until its next call.
    """
    by_item, counts = _by_item(histories)
    by_user = by_item.T  # users x items CSC over by_item's arrays, no copy
    users, items = histories.shape
    if workspace is None:
        workspace = _RankingWorkspace(users, items, k_prime)
    ranking = workspace.ranking
    if (users > workspace.users or items != workspace.items
            or k_prime != ranking.k_prime):
        raise ValueError("the workspace does not fit these histories")
    ranking.start(users)
    # Each rating's column within its block of by_item's rows.
    column = np.repeat(np.arange(items) % _RANK_COLUMNS, np.diff(by_item.indptr))
    for lo in range(0, items, _RANK_COLUMNS):
        hi = min(lo + _RANK_COLUMNS, items)
        a, b = by_item.indptr[lo], by_item.indptr[hi]
        # The block's ratings as flat indices into a users x block array.
        cells = np.multiply(by_item.indices[a:b], hi - lo, dtype=np.int64)
        cells += column[a:b]
        block = _block(workspace.rated, users, hi - lo)
        block.fill(0.0)
        block.ravel()[cells] = 1.0
        scored = _block(workspace.score, users, hi - lo)
        scored.fill(0.0)
        for row in range(0, items, _RANK_COLUMNS):
            similar = _jaccard_slab(by_item, counts, row, lo, block,
                                    workspace.similarity, workspace.union)
            add_sparse_product(by_user, similar, scored, row,
                               row + similar.shape[0])
        scored.ravel()[cells] = 0.0
        ranking.merge(lo, scored)
    return ranking.top


def build_similarity(matrix: InteractionMatrix) -> sp.csr_matrix:
    """The whole item x item Jaccard similarity of :func:`top_items`."""
    by_item, counts = _by_item(_histories(matrix))
    items = counts.size
    union = np.empty(min(_RANK_COLUMNS, items) ** 2)
    blocks = []
    for lo in range(0, items, _RANK_COLUMNS):
        rated = by_item[lo:lo + _RANK_COLUMNS].T.toarray()
        blocks.append(sp.csr_matrix(np.vstack([
            _jaccard_slab(by_item, counts, row, lo, rated, np.empty(union.size),
                          union)
            for row in range(0, items, _RANK_COLUMNS)])))
    return sp.hstack([sp.csr_matrix((items, 0)), *blocks], format="csr")


def recommend_topk(similarity: sp.csr_matrix, user_history,
                   k_prime: int) -> np.ndarray:
    """One user's :func:`top_items` on a prebuilt ``similarity``, over the
    sorted distinct history items."""
    history = np.unique(np.asarray(user_history, dtype=np.int64))
    items = similarity.shape[0]
    if history.size and (history[0] < 0 or history[-1] >= items):
        raise ValueError("history item index out of range")
    row = sp.csr_matrix((np.ones(history.size), history, [0, history.size]),
                        shape=(1, items))
    score = (row @ similarity).toarray()
    score[0, history] = 0.0
    ranking = _RunningTop(1, k_prime, items)
    ranking.merge(0, score)
    top = ranking.top[0]
    return top[top >= 0]


@dataclass(eq=False)
class ItemVoteTable(BaseVoteTable):
    """Per (user, item) inclusion counts of the smoothed top-``k_prime``
    recommender. A user abstains in the samples that leave it without
    ratings, and ``degrees`` holds each user's training rating count."""

    k_prime: int

    @property
    def users(self) -> int:
        return self.counts.shape[0]

    @property
    def items(self) -> int:
        return self.counts.shape[1]


def collect_item_votes(matrix: InteractionMatrix, num_samples: int,
                       params: SmoothingParams, k_prime: int, master_seed: int, *,
                       threads: int = 1, first_index: int = 0) -> ItemVoteTable:
    """Count how often each item enters each user's smoothed top-K'.

    Every sample ranks all users still holding a rating at once on the
    similarity of its own smoothed rating matrix (:func:`top_items`); users
    left without ratings abstain for that sample. Each sample adds its
    votes into the run's one table; its (user, item) pairs are distinct.
    A chunk ranks in an idle workspace of an earlier chunk, if there is
    one, so at most one workspace per pool thread is ever made, and all of
    them go when the call returns.
    """
    if k_prime < 1:
        raise ValueError("k_prime must be >= 1")
    idle = []

    def worker(lo, hi, add):
        try:
            workspace = idle.pop()
        except IndexError:
            workspace = _RankingWorkspace(matrix.users, matrix.items, k_prime)
        for i in range(lo, hi):
            smoothed, _ = sample_smoothed_ratings(
                matrix, params, derive_sample_seed(master_seed, i))
            active = np.flatnonzero(smoothed.user_degrees)
            top = top_items(_histories(smoothed)[active], k_prime, workspace)
            row, rank = np.nonzero(top >= 0)
            add(1, smoothed.user_degrees == 0, at=(active[row], top[row, rank]))
        idle.append(workspace)

    provenance = {"kind": "recommender", "matrix": matrix.fingerprint(),
                  "master_seed": int(master_seed)}
    return ItemVoteTable.collect(worker, (matrix.users, matrix.items),
                                 num_samples, first_index, threads,
                                 params=params, degrees=matrix.user_degrees,
                                 provenance=provenance, k_prime=k_prime)


def _certifies_overlap(p_r: np.ndarray, sums: np.ndarray, take: np.ndarray,
                       k_prime: int, p_hat: np.ndarray,
                       p_isolated: np.ndarray) -> np.ndarray:
    """Check the worst-case condition for at least r ground-truth hits, per row.

    The r-th largest ground-truth lower bound ``p_r`` must beat the cheapest
    average over the bottom-c of the top-(k - r + 1) candidate upper bounds
    (prefix sums ``S_c``, the first ``take`` columns of ``sums``), inflated by
    the mass the adversary moves through samples where the user still votes
    but an injected rating survives. It only gets harder as a row's ``p_hat`` falls.
    """
    slack = k_prime * (1.0 - p_hat) * (1.0 - p_isolated)
    cs = np.arange(1, sums.shape[1] + 1)
    bounds = np.where(cs <= take[:, None],
                      (p_hat[:, None] * sums + slack[:, None]) / cs, np.inf)
    best = np.where(take == 0, slack, bounds.min(axis=1))
    return p_hat * p_r - best > 0.0


def _overlap_radii(table: ItemVoteTable,
                   ground_truths: Mapping[int, Sequence[int]], k: int,
                   tau: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`certified_overlap_radii` and the number of distinct
    ground-truth items of each user, from one pass over the users."""
    if not ground_truths:
        raise ValueError("no users to evaluate")
    params = table.params
    params.require_certifiable()
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if k < 1 or k > table.k_prime:
        raise ValueError("need 1 <= k <= k_prime")
    users, position, gt = _ground_truth_items(table, ground_truths)
    sizes = np.bincount(position, minlength=users.size)
    # Each user's ground-truth counts in descending order, one run per user.
    gt_counts = table.counts[users[position], gt].astype(np.int64)
    gt_counts = gt_counts[np.lexsort((-gt_counts, position))]
    # Each user's top min(k, items) other counts in descending order, over
    # blocks of rows in one buffer. The counts are negated, so that the
    # partition's kth is small: a kth near the end of rows that are mostly
    # zeros took over 10x longer. The ground truths are masked with 1,
    # above every negated count, and so come out as -1 past the user's
    # last other count.
    top = min(k, table.items)
    others = np.empty((users.size, top), dtype=np.int64)
    block = np.empty((min(_OVERLAP_ROWS, users.size), table.items), dtype=np.int64)
    for lo in range(0, users.size, _OVERLAP_ROWS):
        hi = min(lo + _OVERLAP_ROWS, users.size)
        # Widened by assignment: no users x items copy of the table.
        rows = block[:hi - lo]
        rows[...] = table.counts[users[lo:hi]]
        np.negative(rows, out=rows)
        a, b = np.searchsorted(position, (lo, hi))
        rows[position[a:b] - lo, gt[a:b]] = 1
        rows.partition(top - 1, axis=1)
        others[lo:hi] = rows[:, :top]
    others.sort(axis=1)
    np.negative(others, out=others)

    # Rows (user, r) for r = 1 .. min(k, |gt|), in user order.
    per_user = np.minimum(k, sizes)
    user = np.repeat(np.arange(users.size), per_user)
    r = np.arange(user.size) - np.repeat(np.cumsum(per_user) - per_user, per_user) + 1
    candidates = k - r + 1
    level = alpha / (sizes[user] + candidates)
    gt_count = gt_counts[np.repeat(np.cumsum(sizes) - sizes, per_user) + r - 1]
    p_isolated = prob_all_removed_recsys(params, table.degrees[users], 1)[user]
    # Row (user, r) bounds the top k - r + 1 other counts, or all of them,
    # in ascending order, and sums them up. The rows are bounded in blocks,
    # so the gathered counts and masks never span every row.
    take = np.minimum(candidates, table.items - sizes[user])
    sums = np.zeros((user.size, k))
    for lo in range(0, user.size, _OVERLAP_BOUNDS):
        hi = lo + _OVERLAP_BOUNDS
        filled = np.arange(k) < take[lo:hi, None]
        column = np.maximum(take[lo:hi, None] - 1 - np.arange(k), 0)
        uppers = sums[lo:hi]
        uppers[filled] = clopper_pearson_upper(
            others[user[lo:hi, None], column][filled], table.num_samples,
            np.repeat(level[lo:hi], take[lo:hi]))
        np.cumsum(uppers, axis=1, out=uppers)
    lowers = clopper_pearson_lower(gt_count, table.num_samples, level)

    def holds(rho, live):
        return _certifies_overlap(lowers[live], sums[live], take[live], table.k_prime,
                                  prob_all_removed_recsys(params, tau, rho),
                                  p_isolated[live])

    radii = np.full((users.size, k), -1, dtype=np.int64)
    radii[user, r - 1] = largest_certified_rho(holds, r.size)
    # At least r hits are certified wherever r' >= r hits are.
    return np.maximum.accumulate(radii[:, ::-1], axis=1)[:, ::-1], sizes


def _ground_truth_items(table: ItemVoteTable,
                        ground_truths: Mapping[int, Sequence[int]]):
    """The users of ``ground_truths`` in its order, and their distinct
    ground-truth items as (user position, item) columns sorted by position,
    then item, from one ``np.unique``.
    """
    users = list(ground_truths)
    items = [np.asarray(gt, dtype=np.int64) for gt in ground_truths.values()]
    lengths = np.array([gt.size for gt in items])
    flat = np.concatenate(items)
    position = np.repeat(np.arange(len(users)), lengths)
    in_range = (flat >= 0) & (flat < table.items)
    bad_items = np.zeros(len(users), dtype=bool)
    bad_items[position[~in_range]] = True
    # The first user that fails a check raises that check's error.
    for user, length, bad in zip(users, lengths.tolist(), bad_items.tolist()):
        if length == 0:
            raise ValueError(f"user {user} has empty ground truth")
        if not 0 <= user < table.users:
            raise ValueError("user index out of range")
        if table.degrees[user] < 1:
            raise ValueError("certification requires at least one training rating")
        if bad:
            raise ValueError("ground-truth item index out of range")
    keys = np.unique(position * table.items + flat)
    return np.array(users, dtype=np.int64), *np.divmod(keys, table.items)


def certified_overlap_radii(table: ItemVoteTable,
                            ground_truths: Mapping[int, Sequence[int]], k: int,
                            tau: int, alpha: float) -> np.ndarray:
    """Each user's certificate over the injected-user budget at edge budget tau.

    Returns a ``(len(ground_truths), k)`` array in ``ground_truths`` order
    whose column ``r - 1`` is the largest rho at which at least ``r``
    ground-truth items are certified to stay in the user's top-``k`` (-1 if
    never); the certified overlap at rho counts a row's entries that reach
    it. Bounds rise with the count, so each (user, r) bounds only the r-th
    largest ground-truth count and the top ``k - r + 1`` other counts, once.
    """
    return _overlap_radii(table, ground_truths, k, tau, alpha)[0]


def certify_user_overlap(table: ItemVoteTable, user: int, ground_truth, k: int,
                         budget: PerturbationBudget, alpha: float) -> int:
    """Largest ``r`` such that at least ``r`` of the smoothed top-``k`` items
    are guaranteed to come from ``ground_truth`` under any allowed poisoning:
    one user of :func:`certified_overlap_radii` at one budget.
    """
    ground_truth = list(ground_truth)
    if not ground_truth:
        raise ValueError("ground truth must be non-empty")
    radii = certified_overlap_radii(table, {user: ground_truth}, k, budget.tau,
                                    alpha)
    return int((radii >= budget.rho).sum())


@dataclass(frozen=True)
class RecommenderCurvePoint:
    rho: int
    certified_precision: float
    certified_recall: float


@dataclass(frozen=True)
class RecommenderCurve(Curve):
    """Certified precision and recall as functions of the injected-user
    budget."""

    point_type = RecommenderCurvePoint
    csv_prefix = "recsys_curve_tau"

    def summary(self) -> dict:
        tail = [p for p in self.points if p.rho >= 1]
        return {
            "acr_precision": math.fsum(p.certified_precision for p in tail),
            "acr_recall": math.fsum(p.certified_recall for p in tail),
            "clean_certified_precision": self.points[0].certified_precision,
            "clean_certified_recall": self.points[0].certified_recall,
            "max_rho": self.points[-1].rho,
        }


def recommender_curve(table: ItemVoteTable,
                      ground_truths: Mapping[int, Sequence[int]], k: int,
                      tau: int, alpha: float) -> RecommenderCurve:
    """Certified precision/recall over a dense rho grid until both reach zero.

    Each point counts the overlap radii (:func:`certified_overlap_radii`)
    and takes the means in user order: ``cumsum`` adds one user at a time,
    where ``np.sum`` would add pairwise.
    """
    radii, sizes = _overlap_radii(table, ground_truths, k, tau, alpha)
    last = int(radii.max(initial=-1)) + 1
    points = []
    for rho in range(last + 1):
        overlaps = (radii >= rho).sum(axis=1)
        points.append(RecommenderCurvePoint(
            rho, float(np.cumsum(overlaps / k)[-1]) / overlaps.size,
            float(np.cumsum(overlaps / sizes)[-1]) / overlaps.size))
    return RecommenderCurve(tau=tau, points=tuple(points))


# The benchmark's traced run (perfbench/traced.py) wraps this name in the
# CLI module; it goes when the benchmark's hooks are next revised.
write_recommender_report = write_report
