"""Exhaustive-enumeration oracles for fixtures with few random bits.

These replace the Monte-Carlo samplers with exact sums over every smoothing
outcome; they intentionally re-derive the outcome probabilities instead of
calling the samplers under test.
"""
from itertools import product

import numpy as np
import scipy.sparse as sp

from smoothcert import (Graph, InteractionMatrix, build_similarity, predict,
                        recommend_topk)


def _mask_probability(mask, p):
    prob = 1.0
    for bit in mask:
        prob *= p if bit else (1.0 - p)
    return prob


def normalized_adjacency(graph):
    """Self-looped, row-normalized adjacency built as ``diags(1/deg) @ A``.

    The construction the models used before the operator builder; the
    product stores each row's columns in descending order.
    """
    n = graph.n
    e = graph.edges
    src = np.concatenate([e[:, 0], e[:, 1], np.arange(n, dtype=np.int64)])
    dst = np.concatenate([e[:, 1], e[:, 0], np.arange(n, dtype=np.int64)])
    a = sp.csr_matrix((np.ones(src.shape[0]), (src, dst)), shape=(n, n))
    inv_deg = 1.0 / np.asarray(a.sum(axis=1)).ravel()
    return sp.diags(inv_deg) @ a


def enumerate_graph_votes(graph, params, model):
    """Exact per-node class probabilities of ``predict`` under smoothing."""
    n, m = graph.n, graph.num_edges
    edges = graph.edges
    node_masks = (list(product([0, 1], repeat=n))
                  if params.p_n > 0 else [tuple([0] * n)])
    probs = np.zeros((n, model.num_classes))
    for node_mask in node_masks:
        p_nodes = _mask_probability(node_mask, params.p_n)
        for edge_mask in product([0, 1], repeat=m):
            p_edges = _mask_probability(edge_mask, params.p_e)
            keep = [
                not edge_mask[i]
                and not node_mask[edges[i, 0]]
                and not node_mask[edges[i, 1]]
                for i in range(m)
            ]
            sample = Graph(n, edges[np.array(keep, dtype=bool)], graph.features,
                           graph.labels, num_classes=graph.num_classes)
            preds = predict(model, sample)
            weight = p_nodes * p_edges
            for v in range(n):
                probs[v, preds[v]] += weight
    return probs


def enumerate_item_probs(matrix, params, k_prime):
    """Exact per-(user, item) inclusion probabilities plus abstain probabilities."""
    users, items, nnz = matrix.users, matrix.items, matrix.nnz
    pairs = matrix.pairs
    user_masks = (list(product([0, 1], repeat=users))
                  if params.p_n > 0 else [tuple([0] * users)])
    probs = np.zeros((users, items))
    abstain = np.zeros(users)
    for user_mask in user_masks:
        p_users = _mask_probability(user_mask, params.p_n)
        for coin in product([0, 1], repeat=nnz):
            p_coin = _mask_probability(coin, params.p_e)
            keep = [not coin[i] and not user_mask[pairs[i, 0]] for i in range(nnz)]
            smoothed = InteractionMatrix(
                users=users, items=items, pairs=pairs[np.array(keep, dtype=bool)])
            model = build_similarity(smoothed)
            weight = p_users * p_coin
            for u in range(users):
                history = smoothed.items_of(u)
                if history.size == 0:
                    abstain[u] += weight
                    continue
                for item in recommend_topk(model, history, k_prime):
                    probs[u, item] += weight
    return probs, abstain
