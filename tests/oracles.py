"""Reference implementations the tests compare the package against.

The exhaustive-enumeration oracles replace the Monte-Carlo samplers with
exact sums over every smoothing outcome; they intentionally re-derive the
outcome probabilities instead of calling the samplers under test. The
worst-case solver is the generic linear program behind the closed-form
margins, ``reference_certify_node`` is one node's certificate at one budget,
``reference_overlap_from_bounds`` one user's overlap certificate from fixed
probability bounds, ``reference_curve`` is the per-rho, per-node curve loop and
``reference_recommender_curve`` the per-rho, per-user, per-r recommender
curve loop, and ``reference_item_votes`` the per-sample, per-user
recommender vote loop. ``reference_radii`` and ``reference_overlap_radii``
are the two radius functions as they were before they searched: each scans
rho one step at a time up to the first failure.

``reference_predict``, ``reference_train_with_noise`` and
``reference_train_predict`` are the single-graph forward pass and the two
training loops the models had before they shared one loop; they transpose
the operator at each use. ``reference_sbm_edges`` is the planted-partition
generator's edge draw as it was before it went a block of rows at a time:
every candidate pair at once. ``reference_graph_edges`` is ``Graph``'s edge
check before it kept an already canonical list as it is: every list is
swapped to (smaller, larger) rows and sorted. The remaining helpers stand in for accessors that
only tests need: neighbor lists, attack-plan parsing and curve reading.
"""
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy import stats

from smoothcert import (AttackPlan, Graph, InteractionMatrix,
                        TrainedModel, abstain_test, clopper_pearson_lower,
                        clopper_pearson_upper, derive_sample_seed,
                        margin_exclude, margin_include, node_retention_probs,
                        prob_all_removed, prob_all_removed_recsys,
                        sample_smoothed_graph, sample_smoothed_ratings)

_MASS_TOL = 1e-9
_RHO_HARD_CAP = 10**6

# The oracles' own curve rows, which equal the rows of a curve's
# ``points.tolist()``.
CurvePoint = namedtuple("CurvePoint", "rho certified_accuracy abstain_rate")
RecommenderCurvePoint = namedtuple("RecommenderCurvePoint",
                                   "rho certified_precision certified_recall")


@dataclass(frozen=True)
class Region:
    """One constant-likelihood-ratio region of the sample space.

    ``clean_mass`` is the probability the clean-input randomization lands in
    the region, ``perturbed_mass`` the same under the worst-case perturbed
    input. The ratio is clean over perturbed, with +inf when the perturbed
    mass is zero.
    """

    clean_mass: float
    perturbed_mass: float

    def __post_init__(self):
        if self.clean_mass < -_MASS_TOL or self.perturbed_mass < -_MASS_TOL:
            raise ValueError("region masses must be non-negative")

    @property
    def ratio(self) -> float:
        if self.perturbed_mass == 0.0:
            return math.inf
        return self.clean_mass / self.perturbed_mass


LikelihoodRegions = Sequence[Region]


def include_mode_regions(p_all_removed: float) -> list[Region]:
    """Two-region likelihood system for the include-mode certificate."""
    return [Region(1.0, p_all_removed), Region(0.0, 1.0 - p_all_removed)]


def exclude_mode_regions(p_all_removed: float, p_isolated: float,
                         p_isolated_attacked: float) -> list[Region]:
    """Two-region likelihood system for the exclude-mode certificate.

    Restricted to samples where the query node still votes: mass
    ``1 - p_isolated`` under the clean graph, ``1 - p_isolated_attacked``
    under the attacked one. The attacked isolation probability is only known
    to lie between the degree-doubled bound and the clean value, so callers
    evaluate this system once per endpoint, applying each where it is
    conservative.
    """
    kept = 1.0 - p_isolated_attacked
    return [Region(1.0 - p_isolated, p_all_removed * kept),
            Region(0.0, (1.0 - p_all_removed) * kept)]


def worst_case_probabilities(regions: LikelihoodRegions, p_top_lower: float,
                             p_runner_upper: float) -> tuple[float, float]:
    """Perturbed-input class probabilities of the worst-case classifier.

    The adversarial classifier places top-class mass in regions of decreasing
    likelihood ratio until its clean-graph probability reaches
    ``p_top_lower`` (paying as little perturbed mass as possible), and
    runner-up mass in increasing ratio order until ``p_runner_upper`` is
    reached (collecting as much perturbed mass as possible). Each region's
    class probability is capped at 1. This is the exact optimum of the
    underlying linear program.
    """
    clean_total = math.fsum(r.clean_mass for r in regions)
    perturbed_total = math.fsum(r.perturbed_mass for r in regions)
    if clean_total > 1.0 + _MASS_TOL or perturbed_total > 1.0 + _MASS_TOL:
        raise ValueError("region masses must each sum to at most 1")
    p_top_lower = min(max(p_top_lower, 0.0), 1.0)
    p_runner_upper = min(max(p_runner_upper, 0.0), 1.0)
    if p_top_lower > clean_total + _MASS_TOL:
        raise ValueError(
            f"infeasible: p_top_lower={p_top_lower} exceeds clean mass {clean_total}")
    if p_runner_upper > clean_total + _MASS_TOL:
        raise ValueError(
            f"infeasible: p_runner_upper={p_runner_upper} exceeds clean mass {clean_total}")

    by_ratio = sorted(regions, key=lambda r: r.ratio)

    p_top = 0.0
    remaining = p_top_lower
    for region in reversed(by_ratio):
        if remaining <= 0.0:
            break
        if region.clean_mass <= 0.0:
            continue
        frac = min(1.0, remaining / region.clean_mass)
        p_top += frac * region.perturbed_mass
        remaining -= frac * region.clean_mass

    p_runner = 0.0
    remaining = p_runner_upper
    for region in by_ratio:
        if region.clean_mass <= 0.0:
            p_runner += region.perturbed_mass
            continue
        if remaining <= 0.0:
            break
        frac = min(1.0, remaining / region.clean_mass)
        p_runner += frac * region.perturbed_mass
        remaining -= frac * region.clean_mass

    return p_top, p_runner


def solve_worst_case_margin(regions: LikelihoodRegions, p_top_lower: float,
                            p_runner_upper: float) -> float:
    """Exact worst-case margin over the given likelihood region system."""
    p_top, p_runner = worst_case_probabilities(regions, p_top_lower, p_runner_upper)
    return p_top - p_runner


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


def neighbors(graph, v):
    """Node ``v``'s neighbors in ascending order, read off the edge list."""
    if not 0 <= v < graph.n:
        raise ValueError(f"node id {v} out of range [0, {graph.n})")
    e = graph.edges
    return np.sort(np.concatenate([e[e[:, 0] == v, 1], e[e[:, 1] == v, 0]]))


def degree(graph, v):
    return neighbors(graph, v).size


def has_edge(graph, u, v):
    return v in neighbors(graph, u)


def plan_degrees(plan):
    """Edges per injected node of an attack plan."""
    return np.bincount(plan.edges[:, 0], minlength=plan.num_injected)


def plan_from_json(text):
    """Parse ``AttackPlan.to_json`` output."""
    data = json.loads(text)
    rho = len(data["features"])
    return AttackPlan(
        features=np.asarray(data["features"], dtype=np.float64).reshape(rho, -1),
        edges=np.asarray(data["edges"], dtype=np.int64).reshape(-1, 2),
        strategy=data["strategy"])


def certified_at(curve, rho):
    """Certified accuracy of a ``CertCurve`` at a grid point."""
    if not 0 <= rho < len(curve.points):
        raise KeyError(f"rho={rho} not on the curve grid")
    return float(curve.points["certified_accuracy"][rho])


def reference_graph_edges(n, edges):
    """The stored edges and CSR row pointers of ``Graph(n, edges, ...)`` as
    the constructor made them before canonical lists were kept: the range,
    loop and duplicate checks in that order, each with its message, then a
    swap to (smaller, larger) and a sort of every list."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = np.empty((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must have shape (m, 2)")
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise ValueError("edge endpoint out of range")
        if (edges[:, 0] == edges[:, 1]).any():
            raise ValueError("self-loops are not allowed")
        keys = np.sort(np.minimum(edges[:, 0], edges[:, 1]) * n
                       + np.maximum(edges[:, 0], edges[:, 1]))
        dup = keys[1:][keys[1:] == keys[:-1]]
        if dup.size:
            raise ValueError(f"duplicate edge {divmod(int(dup[0]), n)}")
        edges = np.stack(np.divmod(keys, n), axis=1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges.ravel(), minlength=n), out=indptr[1:])
    return edges, indptr


def reference_sbm_edges(n, classes, p_in, p_out, seed):
    """The edges of ``generate_sbm(n, classes, p_in, p_out, d, seed)``: one
    coin per pair u < v in ``np.triu_indices`` order, all drawn at once."""
    labels = np.repeat(np.arange(classes), n // classes)
    coins = np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed) & (2**64 - 1), spawn_key=(0,)))
    iu, iv = np.triu_indices(n, k=1)
    p = np.where(labels[iu] == labels[iv], p_in, p_out)
    keep = coins.random(iu.shape[0]) < p
    return np.stack([iu[keep], iv[keep]], axis=1)


def read_curve_csv(path):
    """Parse a curve CSV written by ``write_report``."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if lines[0] != "rho,certified_accuracy,abstain_rate":
        raise ValueError(f"unexpected header {lines[0]!r}")
    points = []
    for line in lines[1:]:
        rho, acc, rate = line.split(",")
        points.append(CurvePoint(rho=int(rho), certified_accuracy=float(acc),
                                 abstain_rate=float(rate)))
    return points


def _operator(kind, graph):
    return (normalized_adjacency(graph)
            if kind == "message_passing_2layer" else None)


def _reference_forward(weights, agg, features):
    t1 = features @ weights["w1"]
    z1 = (agg @ t1 if agg is not None else t1) + weights["b1"]
    h1 = np.maximum(z1, 0.0)
    t2 = h1 @ weights["w2"]
    logits = (agg @ t2 if agg is not None else t2) + weights["b2"]
    return z1, h1, logits


def reference_predict(model, graph):
    """Predictions from one forward pass over the whole graph."""
    if graph.num_features != model.num_features:
        raise ValueError("feature dimension does not match the trained model")
    logits = _reference_forward(model.weights, _operator(model.spec.kind, graph),
                                graph.features)[-1]
    return np.argmax(logits, axis=1)


def _reference_init(spec, num_features, num_classes):
    rng = np.random.default_rng(derive_sample_seed(spec.seed, 1 << 40))

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return {"w1": glorot(num_features, spec.hidden_dim),
            "b1": np.zeros(spec.hidden_dim),
            "w2": glorot(spec.hidden_dim, num_classes),
            "b2": np.zeros(num_classes)}


def _reference_step(weights, cache, agg, graph, train_idx, spec):
    """One Adagrad step on the training-node cross-entropy."""
    z1, h1, logits = _reference_forward(weights, agg, graph.features)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    d_logits = np.zeros_like(probs)
    d_logits[train_idx] = probs[train_idx]
    d_logits[train_idx, graph.labels[train_idx]] -= 1.0
    d_logits /= len(train_idx)

    d_t2 = agg.T @ d_logits if agg is not None else d_logits
    d_z1 = (d_t2 @ weights["w2"].T) * (z1 > 0.0)
    d_t1 = agg.T @ d_z1 if agg is not None else d_z1
    grads = {"w1": graph.features.T @ d_t1 + spec.weight_decay * weights["w1"],
             "b1": d_z1.sum(axis=0),
             "w2": h1.T @ d_t2 + spec.weight_decay * weights["w2"],
             "b2": d_logits.sum(axis=0)}
    for key, grad in grads.items():
        cache[key] += grad * grad
        weights[key] -= spec.learning_rate * grad / (np.sqrt(cache[key]) + 1e-10)


def reference_train_with_noise(spec, graph, split, params):
    """Noisy training: a fresh smoothed sample and operator every epoch."""
    train_idx = np.asarray(split.train, dtype=np.int64)
    weights = _reference_init(spec, graph.num_features, graph.num_classes)
    cache = {k: np.zeros_like(v) for k, v in weights.items()}
    for epoch in range(spec.epochs):
        sample = sample_smoothed_graph(graph, params,
                                       derive_sample_seed(spec.seed, epoch))
        _reference_step(weights, cache, _operator(spec.kind, sample.graph), graph,
                        train_idx, spec)
    return TrainedModel(spec=spec, weights=weights, num_classes=graph.num_classes,
                        num_features=graph.num_features,
                        graph_fingerprint=graph.fingerprint())


def reference_train_predict(spec, graph, split):
    """Train on one smoothed graph, bypassing its isolated training nodes,
    and predict on it. Returns the predictions and the weights (both None
    when every training node is isolated)."""
    train_idx = np.asarray(split.train, dtype=np.int64)
    train_idx = train_idx[graph.degrees[train_idx] > 0]
    if train_idx.size == 0:
        return None, None
    weights = _reference_init(spec, graph.num_features, graph.num_classes)
    cache = {k: np.zeros_like(v) for k, v in weights.items()}
    agg = _operator(spec.kind, graph)
    for _ in range(spec.epochs):
        _reference_step(weights, cache, agg, graph, train_idx, spec)
    preds = np.argmax(_reference_forward(weights, agg, graph.features)[-1], axis=1)
    return preds, weights


def enumerate_graph_votes(graph, params, model):
    """Exact per-node class probabilities of the predictions under smoothing."""
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
            preds = reference_predict(model, sample)
            weight = p_nodes * p_edges
            for v in range(n):
                probs[v, preds[v]] += weight
    return probs


def reference_ratings_split(records, split_fraction):
    """Training pairs and per-user held-out items of ``(user, item, ts)``
    records, one user at a time, with dense ids in ascending id order."""
    user_index = {u: k for k, u in enumerate(sorted({r[0] for r in records}))}
    item_index = {i: k for k, i in enumerate(sorted({r[1] for r in records}))}
    per_user = [[] for _ in user_index]
    for user, item, ts in records:
        per_user[user_index[user]].append((ts, item_index[item]))
    train, held = [], []
    for u, recs in enumerate(per_user):
        recs.sort()
        count = len(recs)
        n_train = count if count < 2 else max(1, math.floor(split_fraction * count))
        train += [[u, i] for _, i in recs[:n_train]]
        held.append(sorted(i for _, i in recs[n_train:]))
    return sorted(train), held


def reference_cooccurrence(matrix):
    """Users per item pair from a dense 0/1 rating matrix (exact integers)."""
    dense = np.zeros((matrix.users, matrix.items))
    dense[matrix.pairs[:, 0], matrix.pairs[:, 1]] = 1.0
    return dense.T @ dense


def reference_jaccard(matrix):
    """The dense item x item Jaccard similarity, ``both / max(1, (count[i] +
    count[j]) - both)``, from the exact co-occurrence counts."""
    both = reference_cooccurrence(matrix)
    counts = np.diag(both)
    return both / np.maximum((counts[:, None] + counts[None, :]) - both, 1.0)


def reference_topk(cooccurrence, history, k_prime):
    """Top ``k_prime`` items for one history, one history item at a time.

    Adds each history item's Jaccard similarities in history order, zeroes
    the history, keeps positive scores and breaks ties toward the lower id.
    """
    counts = np.diag(cooccurrence)
    score = np.zeros(cooccurrence.shape[0])
    for j in history:
        idx = np.flatnonzero(cooccurrence[j])
        both = cooccurrence[j, idx]
        score[idx] += both / (counts[idx] + counts[j] - both)
    score[history] = 0.0
    candidates = np.flatnonzero(score > 0.0)
    order = candidates[np.lexsort((candidates, -score[candidates]))]
    return order[:k_prime]


def reference_item_votes(matrix, num_samples, params, k_prime, master_seed):
    """Per-(user, item) top-K' counts and abstentions, one user at a time."""
    counts = np.zeros((matrix.users, matrix.items), dtype=np.int64)
    abstains = np.zeros(matrix.users, dtype=np.int64)
    for i in range(num_samples):
        smoothed, _ = sample_smoothed_ratings(
            matrix, params, derive_sample_seed(master_seed, i))
        cooccurrence = reference_cooccurrence(smoothed)
        for u in range(matrix.users):
            history = smoothed.items_of(u)
            if history.size == 0:
                abstains[u] += 1
                continue
            counts[u, reference_topk(cooccurrence, history, k_prime)] += 1
    return counts, abstains


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
            cooccurrence = reference_cooccurrence(smoothed)
            weight = p_users * p_coin
            for u in range(users):
                history = smoothed.items_of(u)
                if history.size == 0:
                    abstain[u] += weight
                    continue
                for item in reference_topk(cooccurrence, history, k_prime):
                    probs[u, item] += weight
    return probs, abstain


def _beta_bounds(top, runner, num_samples, level):
    """Scalar Clopper-Pearson lower bound on ``top`` and upper on ``runner``."""
    lower = (float(stats.beta.ppf(level, top, num_samples - top + 1))
             if top else 0.0)
    upper = (float(stats.beta.ppf(1.0 - level, runner + 1, num_samples - runner))
             if runner < num_samples else 1.0)
    return lower, upper


def _abstains(top, runner, alpha):
    return (stats.binomtest(top, top + runner, 0.5).pvalue if top else 1.0) > alpha


def reference_certify_node(top, runner, num_samples, params, budget, alpha,
                           num_classes, mode="include", degree=None):
    """One node's certificate at one budget: its margin, or None if it abstains.

    Abstains with ``scipy.stats.binomtest``, bounds the top and runner-up
    counts with scalar beta quantiles at level alpha / num_classes and
    evaluates the mode's closed-form margin. The node is certified when the
    margin is positive.
    """
    params.require_certifiable()
    if mode == "exclude" and (degree is None or degree < 1):
        raise ValueError("exclusion mode requires degree >= 1")
    if _abstains(top, runner, alpha):
        return None
    lower, upper = _beta_bounds(top, runner, num_samples, alpha / num_classes)
    p_removed = prob_all_removed(params, budget.tau, budget.rho)
    if mode == "include":
        return margin_include(lower, upper, p_removed)
    return margin_exclude(lower, upper, p_removed,
                          *node_retention_probs(params, degree))


def reference_certified_accuracy(table, labels, budget, alpha):
    """Certified accuracy at one budget over all labeled nodes, one node at a
    time through :func:`reference_certify_node`: the share whose majority
    is correct and certified. In exclude mode an isolated node is never
    certified."""
    labels = np.asarray(labels)
    certified = []
    for v in np.flatnonzero(labels >= 0):
        order = np.argsort(-table.counts[v], kind="stable")
        top, runner = (int(c) for c in table.counts[v][order[:2]])
        degree = int(table.degrees[v])
        if table.mode == "exclude" and degree < 1:
            margin = None
        else:
            margin = reference_certify_node(top, runner, table.num_samples,
                                            table.params, budget, alpha,
                                            table.counts.shape[1], table.mode,
                                            degree)
        certified.append(order[0] == labels[v] and margin is not None
                         and margin > 0.0)
    return float(np.mean(certified))


def reference_curve(table, labels, params, tau, alpha, num_classes,
                    mode="include", degrees=None):
    """Certified-accuracy curve over all labeled nodes, one rho at a time.

    Abstains with ``scipy.stats.binomtest``, bounds each node with scalar
    beta quantiles, evaluates every active node's margin at every grid
    point, and stops once the all-removed probability has dropped to 1/2
    and no node certifies. Returns the points as ``CurvePoint`` and the clean
    accuracy.
    """
    labels = np.asarray(labels)
    nodes = np.flatnonzero(labels >= 0)
    level = alpha / num_classes
    n = table.num_samples
    abstained, correct, lowers, uppers = [], [], [], []
    for v in nodes:
        order = np.argsort(-table.counts[v], kind="stable")
        top, runner = (int(c) for c in table.counts[v][order[:2]])
        abstained.append(_abstains(top, runner, alpha))
        correct.append(order[0] == labels[v])
        lower, upper = _beta_bounds(top, runner, n, level)
        lowers.append(lower)
        uppers.append(upper)
    active = ~np.array(abstained)
    if mode == "exclude":
        active &= np.asarray(degrees)[nodes] > 0

    rho_cut = 1
    while prob_all_removed(params, tau, rho_cut) > 0.5 and rho_cut < _RHO_HARD_CAP:
        rho_cut += 1
    points = []
    rho = 0
    while True:
        p_removed = prob_all_removed(params, tau, rho)
        certified = np.zeros(len(nodes), dtype=bool)
        for j in np.flatnonzero(active):
            if mode == "include":
                margin = margin_include(lowers[j], uppers[j], p_removed)
            else:
                retention = node_retention_probs(params, int(degrees[nodes[j]]))
                margin = margin_exclude(lowers[j], uppers[j], p_removed, *retention)
            certified[j] = margin > 0.0
        xi = float(np.mean(certified & np.array(correct)))
        points.append(CurvePoint(rho, xi, float(np.mean(abstained))))
        if rho >= rho_cut and (xi == 0.0 or rho >= _RHO_HARD_CAP):
            return points, float(np.mean(correct))
        rho += 1


def _beta_lower(counts, n, level):
    out = np.zeros(counts.shape)
    some = counts > 0
    out[some] = stats.beta.ppf(level, counts[some], n - counts[some] + 1)
    return out


def _beta_upper(counts, n, level):
    out = np.ones(counts.shape)
    some = counts < n
    out[some] = stats.beta.ppf(1.0 - level, counts[some] + 1, n - counts[some])
    return out


def _overlap_holds(p_r, other_uppers, r, k, k_prime, p_hat, p_isolated):
    """The worst-case condition for at least r hits, from fixed bounds.

    ``p_r`` is the r-th largest ground-truth lower bound. The adversary's
    cheapest average over the bottom-c of the top-(k - r + 1) other upper
    bounds, inflated by the mass moved while the user votes and an injected
    rating survives, must stay below it.
    """
    slack = k_prime * (1.0 - p_hat) * (1.0 - p_isolated)
    take = min(k - r + 1, len(other_uppers))
    if take == 0:
        return p_hat * p_r - slack > 0.0
    ascending = np.sort(other_uppers)[::-1][:take][::-1]
    sums = np.cumsum(ascending)
    cs = np.arange(1, take + 1, dtype=np.float64)
    return p_hat * p_r - float(((p_hat * sums + slack) / cs).min()) > 0.0


def reference_overlap_from_bounds(gt_lowers, other_uppers, k, k_prime, p_hat,
                                  p_isolated):
    """Largest certified overlap given fixed per-item probability bounds,
    such as exact inclusion probabilities, trying r from the top down."""
    gt_lowers = np.sort(np.asarray(gt_lowers, dtype=np.float64))
    other_uppers = np.asarray(other_uppers, dtype=np.float64)
    for r in range(min(k, gt_lowers.size), 0, -1):
        if _overlap_holds(gt_lowers[-r], other_uppers, r, k, k_prime, p_hat,
                          p_isolated):
            return r
    return 0


def _reference_overlap(table, user, gt, k, params, tau, rho, alpha):
    """Largest certified overlap of one user, trying r from the top down.

    Bounds every item at each r's level and sorts all candidate upper
    bounds, where the package bounds only the counts it needs.
    """
    gt = np.unique(np.asarray(gt, dtype=np.int64))
    p_hat = prob_all_removed_recsys(params, tau, rho)
    d_u = int(table.degrees[user])
    p_isolated = params.p_n + (1.0 - params.p_n) * params.p_e**d_u
    counts = table.counts[user]
    others = np.setdiff1d(np.arange(table.items), gt)
    for r in range(min(k, gt.size), 0, -1):
        level = alpha / (gt.size + (k - r + 1))
        p_r = np.sort(_beta_lower(counts[gt], table.num_samples, level))[-r]
        other_uppers = _beta_upper(counts[others], table.num_samples, level)
        if _overlap_holds(p_r, other_uppers, r, k, table.k_prime, p_hat,
                          p_isolated):
            return r
    return 0


def reference_recommender_curve(table, ground_truths, k, params, tau, alpha):
    """Certified precision/recall points, one rho and one user at a time.

    Precision and recall are running sums in ``ground_truths`` order, and
    the grid stops at the first rho where both are zero.
    """
    points = []
    rho = 0
    while True:
        precision = recall = 0.0
        for user, gt in ground_truths.items():
            r = _reference_overlap(table, user, list(gt), k, params, tau, rho,
                                   alpha)
            precision += r / k
            recall += r / np.unique(list(gt)).size
        count = len(ground_truths)
        points.append(RecommenderCurvePoint(rho, precision / count,
                                            recall / count))
        if (precision == 0.0 and recall == 0.0) or rho >= _RHO_HARD_CAP:
            return points
        rho += 1


def reference_radii(table, tau, alpha, nodes):
    """``certified_radii`` by a scan: each node's margin at rho = 0, 1, ...
    up to its first margin <= 0 or ``_RHO_HARD_CAP``."""
    params = table.params
    nodes = np.asarray(nodes, dtype=np.int64)
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
        while rho <= _RHO_HARD_CAP:
            if rho == len(removed):
                removed.append(prob_all_removed(params, tau, rho))
            if margin(lowers[j], uppers[j], removed[rho], *retention) <= 0.0:
                break
            rho += 1
        radius[j] = rho - 1
    return abstained, majority, radius


def _scanned_overlap_holds(p_r, sums, take, k_prime, p_hat, p_isolated):
    """The overlap condition of every row at one all-removed probability."""
    slack = k_prime * (1.0 - p_hat) * (1.0 - p_isolated)
    cs = np.arange(1, sums.shape[1] + 1)
    bounds = np.where(cs <= take[:, None], (p_hat * sums + slack[:, None]) / cs,
                      np.inf)
    best = np.where(take == 0, slack, bounds.min(axis=1))
    return p_hat * p_r - best > 0.0


def reference_overlap_radii(table, ground_truths, k, tau, alpha):
    """``certified_overlap_radii`` by a scan: every (user, r) pair still
    certified is tested at rho = 0, 1, ... until none is or rho passes
    ``_RHO_HARD_CAP``."""
    params = table.params
    rows = []  # (user position, r, gt count, level, p_isolated, candidate counts)
    for i, (user, gt) in enumerate(ground_truths.items()):
        gt = np.unique(np.asarray(list(gt), dtype=np.int64))
        gt_counts = np.sort(table.counts[user, gt])[::-1]
        others = np.sort(np.delete(table.counts[user], gt))
        p_isolated = prob_all_removed_recsys(params, int(table.degrees[user]), 1)
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
    while alive.size and rho <= _RHO_HARD_CAP:
        p_hat = prob_all_removed_recsys(params, tau, rho)
        alive = alive[_scanned_overlap_holds(lowers[alive], sums[alive],
                                             take[alive], table.k_prime, p_hat,
                                             p_isolated[alive])]
        radii[user[alive], r[alive] - 1] = rho
        rho += 1
    return np.maximum.accumulate(radii[:, ::-1], axis=1)[:, ::-1]
