from dataclasses import replace

import numpy as np
import pytest

from oracles import plan_degrees, plan_from_json
from smoothcert import (AttackPlan, ClassifierSpec, PerturbationBudget,
                        SmoothingParams, VoteTable, apply_attack,
                        collect_votes_evasion,
                        craft_injection, empirical_accuracy,
                        train_with_noise)


class TestCraftInjection:
    def test_zero_budget_is_empty(self, sbm_fixture):
        graph, _ = sbm_fixture
        plan = craft_injection(graph, PerturbationBudget(rho=0, tau=3),
                               "random", seed=1)
        assert plan.num_injected == 0
        assert plan.edges.size == 0

    @pytest.mark.parametrize("strategy", ["random", "centroid_flip"])
    def test_degree_constraint_holds(self, sbm_fixture, strategy):
        graph, split = sbm_fixture
        budget = PerturbationBudget(rho=6, tau=4)
        plan = craft_injection(graph, budget, strategy, seed=2, split=split)
        assert plan.num_injected == 6
        assert np.all(plan_degrees(plan) <= budget.tau)
        assert plan.edges[:, 1].max() < graph.n

    def test_centroid_features_match_recomputed_class_means(self, sbm_fixture):
        graph, split = sbm_fixture
        plan = craft_injection(graph, PerturbationBudget(rho=5, tau=3),
                               "centroid_flip", seed=3, split=split)
        labels = graph.labels
        centroids = {c: graph.features[labels == c].mean(axis=0)
                     for c in np.unique(labels[labels >= 0])}
        for inj in range(plan.num_injected):
            row = plan.features[inj]
            donor = [c for c, centroid in centroids.items()
                     if np.allclose(row, centroid)]
            assert len(donor) == 1
            # targets carry a single victim class, different from the donor
            targets = plan.edges[plan.edges[:, 0] == inj, 1]
            target_labels = set(labels[targets].tolist())
            assert len(target_labels) == 1
            assert target_labels != {donor[0]}

    def test_deterministic(self, sbm_fixture):
        graph, split = sbm_fixture
        budget = PerturbationBudget(rho=3, tau=2)
        a = craft_injection(graph, budget, "random", seed=9)
        b = craft_injection(graph, budget, "random", seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.edges, b.edges)

    def test_plan_json_round_trip(self, sbm_fixture):
        graph, split = sbm_fixture
        plan = craft_injection(graph, PerturbationBudget(rho=4, tau=3),
                               "centroid_flip", seed=5, split=split)
        again = plan_from_json(plan.to_json())
        assert np.array_equal(plan.features, again.features)
        assert np.array_equal(plan.edges, again.edges)
        assert plan.strategy == again.strategy


class TestApplyAttack:
    def test_empty_plan_is_identity(self, sbm_fixture):
        graph, _ = sbm_fixture
        plan = craft_injection(graph, PerturbationBudget(rho=0, tau=3),
                               "random", seed=1)
        assert apply_attack(graph, plan) == graph

    def test_grows_by_rho_and_preserves_original(self, sbm_fixture):
        graph, _ = sbm_fixture
        plan = craft_injection(graph, PerturbationBudget(rho=7, tau=2),
                               "random", seed=4)
        attacked = apply_attack(graph, plan)
        assert attacked.n == graph.n + 7
        original_edges = attacked.edges[attacked.edges[:, 1] < graph.n]
        original_edges = original_edges[original_edges[:, 0] < graph.n]
        assert np.array_equal(original_edges, graph.edges)
        assert np.array_equal(attacked.features[:graph.n], graph.features)
        assert np.array_equal(attacked.labels[:graph.n], graph.labels)
        assert np.all(attacked.labels[graph.n:] == -1)

    def test_inconsistent_plan_rejected(self, sbm_fixture):
        graph, _ = sbm_fixture
        bad = AttackPlan(features=np.zeros((1, graph.num_features)),
                         edges=np.array([[0, graph.n + 5]]), strategy="random")
        with pytest.raises(ValueError, match="target"):
            apply_attack(graph, bad)

    def test_nan_injected_feature_is_refused_before_voting(self, sbm_fixture):
        graph, split = sbm_fixture
        params = SmoothingParams(0.1, 0.3)
        model = train_with_noise(ClassifierSpec(hidden_dim=8, epochs=5, seed=3),
                                 graph, split, params)
        plan = craft_injection(graph, PerturbationBudget(rho=3, tau=2),
                               "random", seed=4)
        features = plan.features.copy()
        features[1, 0] = np.nan
        attacked = apply_attack(graph, replace(plan, features=features))
        with pytest.raises(ValueError, match=f"node {graph.n + 1} .* not finite"):
            collect_votes_evasion(model, attacked, 20, params, master_seed=7)


class TestEmpiricalAccuracy:
    @pytest.mark.parametrize("node", [-1, 2])
    def test_rejects_node_ids_out_of_range(self, node):
        # -1 used to score the last node.
        table = VoteTable(counts=[[3, 0], [0, 3]], abstains=[0, 0],
                          num_samples=3, params=SmoothingParams(0.1, 0.8),
                          degrees=[1, 1], provenance={})
        with pytest.raises(ValueError, match="row ids"):
            empirical_accuracy(table, table, [0, 1], [0, node])

    def test_rejects_unlabeled_nodes(self):
        # A node labeled -1 used to count as misclassified: (0.5, 0.5).
        table = VoteTable(counts=[[3, 0], [0, 3]], abstains=[0, 0],
                          num_samples=3, params=SmoothingParams(0.1, 0.8),
                          degrees=[1, 1], provenance={})
        assert empirical_accuracy(table, table, [0, 1], [0, 1]) == (1.0, 1.0)
        with pytest.raises(ValueError,
                           match="labels required for every evaluated node"):
            empirical_accuracy(table, table, [0, -1], [0, 1])

    def test_zero_budget_keeps_accuracy(self, sbm_fixture):
        graph, split = sbm_fixture
        spec = ClassifierSpec(hidden_dim=8, epochs=40, seed=3)
        params = SmoothingParams(0.1, 0.3)
        model = train_with_noise(spec, graph, split, params)
        votes = collect_votes_evasion(model, graph, 200, params, master_seed=6)
        clean, attacked = empirical_accuracy(votes, votes, graph.labels,
                                             split.test)
        assert clean == attacked

    def test_feature_mlp_is_unaffected_by_injection(self, sbm_fixture):
        graph, split = sbm_fixture
        spec = ClassifierSpec(kind="feature_mlp", hidden_dim=8, epochs=40, seed=3)
        params = SmoothingParams(0.2, 0.4)
        model = train_with_noise(spec, graph, split, params)
        plan = craft_injection(graph, PerturbationBudget(rho=10, tau=4),
                               "centroid_flip", seed=8, split=split)
        attacked_graph = apply_attack(graph, plan)
        clean_votes = collect_votes_evasion(model, graph, 150, params,
                                            master_seed=7)
        attacked_votes = collect_votes_evasion(model, attacked_graph, 150,
                                               params, master_seed=7)
        clean, attacked = empirical_accuracy(clean_votes, attacked_votes,
                                             graph.labels, split.test)
        assert clean == attacked
        assert np.array_equal(clean_votes.counts,
                              attacked_votes.counts[:graph.n])
