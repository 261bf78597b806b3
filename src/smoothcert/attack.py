"""Heuristic node-injection attacks for empirical robustness checks.

Two cheap strategies are provided; their purpose is the end-to-end soundness
cross-check (empirical accuracy under a realized attack can never fall below
the certified accuracy at the same budget), not attack-strength research.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import DataSplit, Graph, PerturbationBudget
from .pipeline import VoteTable
from .sampling import derive_sample_seed

STRATEGIES = ("random", "centroid_flip")

_ATTACK_STREAM = 2


@dataclass(frozen=True, eq=False)
class AttackPlan:
    """Injected node features plus the edges wiring them into the graph.

    ``edges`` rows are (injected index, existing target id); every injected
    node touches at most the crafting budget's tau targets.
    """

    features: np.ndarray  # (rho, d)
    edges: np.ndarray     # (k, 2)
    strategy: str

    @property
    def num_injected(self) -> int:
        return self.features.shape[0]

    def to_json(self) -> str:
        return json.dumps({
            "strategy": self.strategy,
            "features": self.features.tolist(),
            "edges": self.edges.tolist(),
        }, sort_keys=True)


def craft_injection(graph: Graph, budget: PerturbationBudget, strategy: str,
                    seed: int, split: Optional[DataSplit] = None) -> AttackPlan:
    """Craft an injection plan within the given budget.

    ``random`` wires each injected node to uniform targets and draws standard
    normal features. ``centroid_flip`` points each injected node at test
    nodes of one class (all labeled nodes when no split is given) while
    copying the feature centroid of a different class. Deterministic given
    the seed.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    d = graph.num_features
    rng = np.random.default_rng(derive_sample_seed(seed, _ATTACK_STREAM))
    if budget.rho == 0:
        return AttackPlan(features=np.empty((0, d)),
                          edges=np.empty((0, 2), dtype=np.int64),
                          strategy=strategy)

    edges = []
    if strategy == "random":
        features = rng.standard_normal((budget.rho, d))
        for inj in range(budget.rho):
            targets = rng.choice(graph.n, size=min(budget.tau, graph.n),
                                 replace=False)
            edges.extend((inj, int(t)) for t in targets)
    else:
        labels = graph.labels
        classes = np.unique(labels[labels >= 0])
        if classes.size < 2:
            raise ValueError("centroid_flip needs at least two labeled classes")
        pool = split.test if split is not None else np.flatnonzero(labels >= 0)
        pool = pool[labels[pool] >= 0]
        features = np.empty((budget.rho, d))
        for inj in range(budget.rho):
            victim = int(rng.choice(classes))
            donors = classes[classes != victim]
            donor = int(rng.choice(donors))
            victims = pool[labels[pool] == victim]
            if victims.size == 0:
                victims = np.flatnonzero(labels == victim)
            targets = rng.choice(victims, size=min(budget.tau, victims.size),
                                 replace=False)
            edges.extend((inj, int(t)) for t in targets)
            features[inj] = graph.features[labels == donor].mean(axis=0)

    return AttackPlan(features=features,
                      edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                      strategy=strategy)


def apply_attack(graph: Graph, plan: AttackPlan) -> Graph:
    """Append the injected nodes and their edges; existing structure is untouched."""
    rho = plan.num_injected
    if rho == 0:
        return graph
    if plan.features.shape[1] != graph.num_features:
        raise ValueError("injected features have the wrong dimension")
    if plan.edges.size:
        if plan.edges[:, 0].min() < 0 or plan.edges[:, 0].max() >= rho:
            raise ValueError("injected index out of range")
        if plan.edges[:, 1].min() < 0 or plan.edges[:, 1].max() >= graph.n:
            raise ValueError("attack target out of range")
    injected = np.stack([graph.n + plan.edges[:, 0], plan.edges[:, 1]], axis=1)
    edges = np.concatenate([graph.edges, injected], axis=0)
    features = np.concatenate([graph.features, plan.features], axis=0)
    labels = np.concatenate([graph.labels, np.full(rho, -1, dtype=np.int64)])
    return Graph(graph.n + rho, edges, features, labels,
                 num_classes=graph.num_classes)


def empirical_accuracy(clean_votes: VoteTable, attacked_votes: VoteTable,
                       labels, nodes) -> tuple[float, float]:
    """Majority-vote accuracy of the smoothed classifier before and after attack."""
    labels = np.asarray(labels, dtype=np.int64)
    nodes = clean_votes.checked_rows(nodes)
    clean = clean_votes.majority_classes[nodes]
    attacked = attacked_votes.majority_classes[nodes]
    return (float(np.mean(clean == labels[nodes])),
            float(np.mean(attacked == labels[nodes])))
