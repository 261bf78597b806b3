"""Seeded samplers for the joint edge/node deletion smoothing distribution.

Every sampler is a pure function of (input, params, seed), so callers may
evaluate any number of samples concurrently. Per-sample randomness is split
into disjoint node and edge substreams, keyed off the sample seed, so adding
edges to the input never perturbs node-deletion outcomes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, InteractionMatrix

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Substream tags for the per-sample seed.
_NODE_STREAM = 0
_EDGE_STREAM = 1


def derive_sample_seed(master_seed: int, index: int) -> int:
    """Stateless 64-bit mix of (master_seed, index).

    A splitmix-style finalizer over ``master_seed + (index + 1) * gamma``.
    Bijective in ``index`` for a fixed master seed, identical on every
    platform, and cheap enough to call once per Monte-Carlo sample.
    """
    z = (int(master_seed) + (int(index) + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SmoothingParams:
    """Edge-deletion probability ``p_e`` and node-deletion probability ``p_n``."""

    p_e: float
    p_n: float

    def __post_init__(self):
        if not (0.0 <= self.p_e <= 1.0 and 0.0 <= self.p_n <= 1.0):
            raise ValueError("deletion probabilities must lie in [0, 1]")

    def require_certifiable(self) -> None:
        """Reject parameter values that break the certificates.

        Probability 1 makes the all-removed probability trivially 1 and the
        exclusion retention term divide by zero, so certification runs refuse
        it; the raw samplers still accept it.
        """
        if self.p_e >= 1.0 or self.p_n >= 1.0:
            raise ValueError("certification requires p_e < 1 and p_n < 1")


@dataclass(frozen=True, eq=False)
class SmoothedSample:
    """A smoothed graph plus the node-deletion mask that produced it.

    Deleted nodes are kept as zero-degree rows so downstream classifiers see a
    constant shape. Nothing in the package reads the mask: a deleted node
    keeps no edge, so abstention handling reads the smoothed graph's degrees.
    """

    graph: Graph
    deleted_nodes: np.ndarray


def _draw_keep_mask(num_nodes: int, endpoints: np.ndarray, params: SmoothingParams,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only node-deletion mask and the keep mask of the pairs whose node
    ids are the columns of ``endpoints``, a (k, pairs) array."""
    node_rng = np.random.default_rng(derive_sample_seed(seed, _NODE_STREAM))
    deleted = node_rng.random(num_nodes) < params.p_n
    edge_rng = np.random.default_rng(derive_sample_seed(seed, _EDGE_STREAM))
    dropped = edge_rng.random(endpoints.shape[1]) < params.p_e
    for nodes in endpoints:
        dropped |= deleted[nodes]
    deleted.flags.writeable = False
    return deleted, ~dropped


def sample_smoothed_graph(graph: Graph, params: SmoothingParams,
                          seed: int) -> SmoothedSample:
    """Draw one smoothed graph.

    Each node is independently deleted with probability ``p_n`` (all incident
    edges dropped, the node kept as an isolated row); each surviving edge is
    independently deleted with probability ``p_e``. Features and labels are
    unchanged. Deterministic given the seed.
    """
    edges = graph.edges
    deleted, keep = _draw_keep_mask(graph.n, edges.T, params, seed)
    smoothed = Graph(graph.n, edges.compress(keep, axis=0), graph.features,
                     graph.labels, num_classes=graph.num_classes)
    return SmoothedSample(graph=smoothed, deleted_nodes=deleted)


def sample_smoothed_ratings(matrix: InteractionMatrix, params: SmoothingParams,
                            seed: int) -> tuple[InteractionMatrix, np.ndarray]:
    """Draw one smoothed rating matrix.

    Each user is independently deleted (all of its interactions removed) with
    probability ``p_n``; each surviving interaction is independently removed
    with probability ``p_e``. Items are never deleted. Returns the smoothed
    matrix and the user-deletion mask.
    """
    pairs = matrix.pairs
    deleted, keep = _draw_keep_mask(matrix.users, pairs[:, :1].T, params, seed)
    smoothed = InteractionMatrix(users=matrix.users, items=matrix.items,
                                 pairs=pairs.compress(keep, axis=0))
    return smoothed, deleted
