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
from .pipeline import BaseVoteTable, Curve, write_report
from .sampling import SmoothingParams, derive_sample_seed, sample_smoothed_ratings
from .certify import (RHO_CAP, clopper_pearson_lower, clopper_pearson_upper,
                      largest_certified_rho, prob_all_removed_recsys)


_RANK_COLUMNS = 256  # item columns per block of top_items' similarity and scores


def _histories(matrix: InteractionMatrix) -> sp.csr_matrix:
    """Users x items 0/1 matrix; each row holds the user's items ascending."""
    return sp.csr_matrix((np.ones(matrix.nnz), tuple(matrix.pairs.T)),
                         shape=(matrix.users, matrix.items))


def _by_item(histories: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """Items x users CSR of ``histories`` and each item's rating count."""
    by_item = histories.T.tocsr()
    return by_item, np.asarray(by_item.sum(axis=1), dtype=np.float64).ravel()


def _jaccard_columns(by_item: sp.csr_matrix, counts: np.ndarray, lo: int,
                     rated: np.ndarray) -> np.ndarray:
    """Columns ``lo:lo + width`` of the item x item Jaccard similarity, dense,
    where ``rated`` is ``histories[:, lo:lo + width]`` as a dense 0/1 array.

    The similarity at ``(i, j)`` is ``both / ((count[i] + count[j]) - both)``
    over the co-occurrence counts; all three are integer sums, exact in any
    order. Where both counts are 0 the floor of 1 on the denominator gives
    0 / 1 = 0; everywhere else it is already >= 1.
    """
    similarity = by_item @ rated
    union = np.add.outer(counts, counts[lo:lo + rated.shape[1]])
    union -= similarity
    np.maximum(union, 1.0, out=union)
    similarity /= union
    return similarity


def _running_top(scored_blocks, rows: int, k_prime: int) -> np.ndarray:
    """Each row's ``k_prime`` highest positive scores over the ``(lo, score)``
    column blocks, ties toward the lower item id; rows are padded with -1.

    Each block is merged with the running top-K': ``np.partition`` finds the
    K'-th score and only the candidates at or above it are sorted.
    """
    if k_prime < 1:
        raise ValueError("k_prime must be >= 1")
    best = np.zeros((rows, k_prime))
    top = np.full((rows, k_prime), -1, dtype=np.int64)
    for lo, score in scored_blocks:
        scores = np.hstack([best, score])
        items = np.hstack([top, np.broadcast_to(
            np.arange(lo, lo + score.shape[1]), score.shape)])
        cut = np.partition(scores, -k_prime, axis=1)[:, -k_prime]
        row, col = np.nonzero((scores >= cut[:, None]) & (scores > 0.0))
        order = np.lexsort((items[row, col], -scores[row, col], row))
        row, col = row[order], col[order]
        rank = np.arange(row.size) - np.searchsorted(row, row)
        kept = rank < k_prime
        row, col, rank = row[kept], col[kept], rank[kept]
        best.fill(0.0)
        top.fill(-1)
        best[row, rank] = scores[row, col]
        top[row, rank] = items[row, col]
    return top


def top_items(histories: sp.csr_matrix, k_prime: int) -> np.ndarray:
    """Each user's top ``k_prime`` items by summed Jaccard similarity to the
    history, the similarity taken over these same histories.

    ``histories`` is a users x items 0/1 CSR with each row's items ascending.
    Each block of scores is one CSR @ dense product, which adds a user's
    similarities in history order (the absent entries add +0.0). History
    items and zero-score items are never ranked and ties break toward the
    lower item id; rows are padded with -1. Memory is O((users + items) x
    block), never items x items.
    """
    by_item, counts = _by_item(histories)

    def scored():
        for lo in range(0, counts.size, _RANK_COLUMNS):
            rated = by_item[lo:lo + _RANK_COLUMNS].T.toarray()
            score = histories @ _jaccard_columns(by_item, counts, lo, rated)
            score[rated > 0.0] = 0.0
            yield lo, score

    return _running_top(scored(), histories.shape[0], k_prime)


def build_similarity(matrix: InteractionMatrix) -> sp.csr_matrix:
    """The whole item x item Jaccard similarity of :func:`top_items`."""
    by_item, counts = _by_item(_histories(matrix))
    blocks = [sp.csr_matrix(_jaccard_columns(
        by_item, counts, lo, by_item[lo:lo + _RANK_COLUMNS].T.toarray()))
        for lo in range(0, counts.size, _RANK_COLUMNS)]
    return sp.hstack([sp.csr_matrix((counts.size, 0)), *blocks], format="csr")


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
    top = _running_top([(0, score)], 1, k_prime)[0]
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
    left without ratings abstain for that sample.
    """
    if k_prime < 1:
        raise ValueError("k_prime must be >= 1")

    def worker(lo, hi):
        counts = np.zeros((matrix.users, matrix.items), dtype=np.int64)
        abstains = np.zeros(matrix.users, dtype=np.int64)
        for i in range(lo, hi):
            smoothed, _ = sample_smoothed_ratings(
                matrix, params, derive_sample_seed(master_seed, i))
            active = np.flatnonzero(smoothed.user_degrees)
            abstains += smoothed.user_degrees == 0
            top = top_items(_histories(smoothed)[active], k_prime)
            row, rank = np.nonzero(top >= 0)
            counts[active[row], top[row, rank]] += 1
        return counts, abstains

    provenance = {"kind": "recommender", "matrix": matrix.fingerprint(),
                  "master_seed": int(master_seed)}
    return ItemVoteTable.collect(worker, num_samples, first_index, threads,
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
    if not ground_truths:
        raise ValueError("no users to evaluate")
    params = table.params
    params.require_certifiable()
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if k < 1 or k > table.k_prime:
        raise ValueError("need 1 <= k <= k_prime")
    rows = []  # (user position, r, gt count, level, p_isolated, candidate counts)
    for i, (user, gt) in enumerate(ground_truths.items()):
        gt = np.unique(np.asarray(list(gt), dtype=np.int64))
        if gt.size == 0:
            raise ValueError(f"user {user} has empty ground truth")
        if not 0 <= user < table.users:
            raise ValueError("user index out of range")
        d_u = int(table.degrees[user])
        if d_u < 1:
            raise ValueError("certification requires at least one training rating")
        if gt.min() < 0 or gt.max() >= table.items:
            raise ValueError("ground-truth item index out of range")
        gt_counts = np.sort(table.counts[user, gt])[::-1]
        others = np.sort(np.delete(table.counts[user], gt))
        p_isolated = prob_all_removed_recsys(params, d_u, 1)
        rows += [(i, r, gt_counts[r - 1], alpha / (gt.size + (k - r + 1)),
                  p_isolated, others[max(others.size - (k - r + 1), 0):])
                 for r in range(1, min(k, gt.size) + 1)]
    *columns, candidates = zip(*rows)
    user, r, gt_counts, level, p_isolated = map(np.array, columns)
    take = np.array([c.size for c in candidates])
    filled = np.arange(k) < take[:, None]
    uppers = np.zeros(filled.shape)
    uppers[filled] = clopper_pearson_upper(np.concatenate(candidates),
                                           table.num_samples, np.repeat(level, take))
    lowers = clopper_pearson_lower(gt_counts, table.num_samples, level)
    sums = np.cumsum(uppers, axis=1)

    def holds(rho, live):
        budgets, at = np.unique(rho, return_inverse=True)
        p_hat = np.array([prob_all_removed_recsys(params, tau, int(b))
                          for b in budgets])[at]
        return _certifies_overlap(lowers[live], sums[live], take[live],
                                  table.k_prime, p_hat, p_isolated[live])

    radii = np.full((len(ground_truths), k), -1, dtype=np.int64)
    radii[user, r - 1] = largest_certified_rho(holds, r.size)
    # At least r hits are certified wherever r' >= r hits are.
    return np.maximum.accumulate(radii[:, ::-1], axis=1)[:, ::-1]


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
    radii = certified_overlap_radii(table, ground_truths, k, tau, alpha)
    sizes = np.array([np.unique(list(gt)).size for gt in ground_truths.values()])
    last = min(RHO_CAP, int(radii.max(initial=-1)) + 1)
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
