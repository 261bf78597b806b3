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
from .pipeline import BaseVoteTable, Curve, accumulate_parallel, write_report
from .sampling import SmoothingParams, derive_sample_seed, sample_smoothed_ratings
from .certify import (RHO_CAP, clopper_pearson_lower, clopper_pearson_upper,
                      prob_all_removed_recsys)


_RANK_ROWS = 256  # rows per block: top_items scores, build_similarity's Jaccard


def _histories(matrix: InteractionMatrix) -> sp.csr_matrix:
    """Users x items 0/1 matrix; each row holds the user's items ascending."""
    return sp.csr_matrix((np.ones(matrix.nnz), tuple(matrix.pairs.T)),
                         shape=(matrix.users, matrix.items))


def build_similarity(matrix: InteractionMatrix) -> sp.csr_matrix:
    """Item x item Jaccard similarity, written over the co-occurrence counts:
    ``both / ((count[j] + count[i]) - both)`` at ``(i, j)``."""
    a = _histories(matrix)
    similarity = a.T.tocsr() @ a
    counts = similarity.diagonal()
    for lo in range(0, counts.size, _RANK_ROWS):
        bounds = similarity.indptr[lo:lo + _RANK_ROWS + 1]
        part = slice(bounds[0], bounds[-1])
        denominator = counts[similarity.indices[part]]
        denominator += np.repeat(counts[lo:lo + _RANK_ROWS], np.diff(bounds))
        denominator -= similarity.data[part]
        similarity.data[part] /= denominator
    return similarity


def top_items(similarity: sp.csr_matrix, histories: sp.csr_matrix,
              k_prime: int) -> np.ndarray:
    """Each user's top ``k_prime`` items by summed similarity to the history.

    ``histories`` is a users x items CSR with each row's items ascending, so
    the product adds a user's similarities in history order. History items
    and zero-score items are never ranked and ties break toward the lower
    item id; rows are padded with -1.
    """
    if k_prime < 1:
        raise ValueError("k_prime must be >= 1")
    top = np.full((histories.shape[0], k_prime), -1, dtype=np.int64)
    for lo in range(0, histories.shape[0], _RANK_ROWS):
        block = histories[lo:lo + _RANK_ROWS]
        score = (block @ similarity).toarray()
        score[block.nonzero()] = 0.0
        order = np.argsort(-score, axis=1, kind="stable")[:, :k_prime]
        top[lo:lo + block.shape[0], :order.shape[1]] = np.where(
            np.take_along_axis(score, order, axis=1) > 0.0, order, -1)
    return top


def recommend_topk(similarity: sp.csr_matrix, user_history,
                   k_prime: int) -> np.ndarray:
    """One row of :func:`top_items`, over the sorted distinct history items."""
    history = np.unique(np.asarray(user_history, dtype=np.int64))
    row = sp.csr_matrix((np.ones(history.size), (np.zeros_like(history), history)),
                        shape=(1, similarity.shape[0]))
    top = top_items(similarity, row, k_prime)[0]
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

    Every sample rebuilds the similarity on its own smoothed rating matrix
    and ranks all users still holding a rating at once (:func:`top_items`);
    users left without ratings abstain for that sample.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
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
            top = top_items(build_similarity(smoothed),
                            _histories(smoothed)[active], k_prime)
            row, rank = np.nonzero(top >= 0)
            counts[active[row], top[row, rank]] += 1
        return counts, abstains

    counts, abstains = accumulate_parallel(num_samples, first_index, threads, worker)
    provenance = {
        "kind": "recommender", "matrix": matrix.fingerprint(),
        "master_seed": int(master_seed), "first_index": int(first_index),
        "num_samples": int(num_samples),
    }
    return ItemVoteTable(counts=counts, abstains=abstains,
                         num_samples=num_samples, params=params,
                         degrees=matrix.user_degrees, provenance=provenance,
                         k_prime=k_prime)


def _certifies_overlap(p_r: np.ndarray, sums: np.ndarray, take: np.ndarray,
                       k_prime: int, p_hat: float,
                       p_isolated: np.ndarray) -> np.ndarray:
    """Check the worst-case condition for at least r ground-truth hits, per row.

    The r-th largest ground-truth lower bound ``p_r`` must beat the cheapest
    average over the bottom-c of the top-(k - r + 1) candidate upper bounds
    (prefix sums ``S_c``, the first ``take`` columns of ``sums``), inflated by
    the mass the adversary moves through samples where the user still votes
    but an injected rating survives. It only gets harder as ``p_hat`` falls.
    """
    slack = k_prime * (1.0 - p_hat) * (1.0 - p_isolated)
    cs = np.arange(1, sums.shape[1] + 1)
    bounds = np.where(cs <= take[:, None], (p_hat * sums + slack[:, None]) / cs,
                      np.inf)
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
    radii = np.full((len(ground_truths), k), -1, dtype=np.int64)
    alive = np.arange(r.size)
    rho = 0
    while alive.size and rho <= RHO_CAP:
        p_hat = prob_all_removed_recsys(params, tau, rho)
        alive = alive[_certifies_overlap(lowers[alive], sums[alive], take[alive],
                                         table.k_prime, p_hat, p_isolated[alive])]
        radii[user[alive], r[alive] - 1] = rho
        rho += 1
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
    points = []
    for rho in range(min(RHO_CAP, int(radii.max(initial=-1)) + 1) + 1):
        overlaps = (radii >= rho).sum(axis=1)
        points.append(RecommenderCurvePoint(
            rho, float(np.cumsum(overlaps / k)[-1]) / overlaps.size,
            float(np.cumsum(overlaps / sizes)[-1]) / overlaps.size))
    return RecommenderCurve(tau=tau, points=tuple(points))


# The benchmark's traced run (perfbench/traced.py) wraps this name in the
# CLI module; it goes when the benchmark's hooks are next revised.
write_recommender_report = write_report
