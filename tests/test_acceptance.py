"""Acceptance suite: one test per binding criterion, each printing a
[criterion] PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (certified_at, enumerate_graph_votes,
                     enumerate_item_probs, exclude_mode_regions,
                     include_mode_regions,
                     reference_certify_node, reference_overlap_from_bounds,
                     reference_recommender_curve, worst_case_probabilities)
from smoothcert import (ClassifierSpec, InteractionMatrix,
                        PerturbationBudget, SmoothingParams, apply_attack,
                        average_certified_radius,
                        certified_accuracy_curve, certified_overlap_radii,
                        certified_radii, certify_user_overlap,
                        clopper_pearson_lower, clopper_pearson_upper,
                        collect_item_votes, collect_votes_evasion,
                        craft_injection, empirical_accuracy,
                        load_node_classification_dataset, margin_exclude,
                        margin_include, node_retention_probs,
                        prob_all_removed, prob_all_removed_recsys,
                        recommender_curve, seeded_split, train_with_noise)
from smoothcert.certify import largest_certified_rho
from smoothcert.pipeline import VoteTable
from smoothcert.recsys import ItemVoteTable


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion] {name}: FAIL")
        raise
    print(f"\n[criterion] {name}: PASS")


def perfect_table(labels, num_classes, num_samples, params):
    n = len(labels)
    counts = np.zeros((n, num_classes), dtype=np.int64)
    counts[np.arange(n), labels] = num_samples
    return VoteTable(counts=counts, abstains=np.zeros(n, dtype=np.int64),
                     num_samples=num_samples, params=params,
                     degrees=np.ones(n, dtype=np.int64),
                     provenance={"kind": "synthetic"})


def test_oracle_equivalence():
    """Closed-form margins equal the sorted-region solver, 1e-12 over 1e4 draws."""
    with criterion("closed-form margins match the region solver"):
        started = time.monotonic()
        rng = np.random.default_rng(2024)

        for _ in range(10_000):
            p_removed = rng.uniform(0, 1)
            p_top, p_runner = rng.uniform(0, 1, size=2)
            closed = margin_include(p_top, p_runner, p_removed)
            solver_top, solver_runner = worst_case_probabilities(
                include_mode_regions(p_removed), p_top, p_runner)
            assert abs(closed - (solver_top - solver_runner)) <= 1e-12

        for _ in range(10_000):
            params = SmoothingParams(rng.uniform(0, 0.99), rng.uniform(0, 0.99))
            tau = int(rng.integers(1, 10))
            rho = int(rng.integers(0, 12))
            degree = int(rng.integers(1, 25))
            p_removed = prob_all_removed(params, tau, rho)
            p_iso, p_iso_attacked = node_retention_probs(params, degree)
            p_top = rng.uniform(0, 1 - p_iso)
            p_runner = rng.uniform(0, 1 - p_iso)
            closed = margin_exclude(p_top, p_runner, p_removed, p_iso,
                                    p_iso_attacked)
            # The closed form bounds each side of the margin at its own
            # endpoint of the attacked-isolation interval, so the solver is
            # evaluated once per endpoint system.
            solver_top = worst_case_probabilities(
                exclude_mode_regions(p_removed, p_iso, p_iso), p_top, 0.0)[0]
            solver_runner = worst_case_probabilities(
                exclude_mode_regions(p_removed, p_iso, p_iso_attacked),
                0.0, p_runner)[1]
            assert abs(closed - (solver_top - solver_runner)) <= 1e-12

        assert time.monotonic() - started < 10.0


def test_removal_probability_monte_carlo():
    """Simulated all-edges-removed frequencies match the closed forms, 4 sigma at 1e6."""
    with criterion("all-removed probabilities match Monte-Carlo simulation"):
        started = time.monotonic()
        draws = 10**6
        rng = np.random.default_rng(99)

        # Star fixtures: rho injected nodes, each wired to tau distinct
        # existing targets. An injected edge disappears when its own coin
        # fires, its target is deleted, or the injected node is deleted.
        for p_e, p_n, tau, rho in [(0.1, 0.9, 5, 2), (0.3, 0.4, 3, 3)]:
            params = SmoothingParams(p_e, p_n)
            injected_deleted = rng.random((draws, rho)) < p_n
            target_deleted = rng.random((draws, rho, tau)) < p_n
            edge_coin = rng.random((draws, rho, tau)) < p_e
            edge_removed = edge_coin | target_deleted | injected_deleted[:, :, None]
            cleared = edge_removed.all(axis=2).all(axis=1)
            expected = prob_all_removed(params, tau, rho)
            sigma = math.sqrt(expected * (1 - expected) / draws)
            assert abs(cleared.mean() - expected) <= 4 * sigma

        # Bipartite variant: injected users attach to items, which are never
        # deleted, so only the rating coins and the user coin matter.
        for p_e, p_n, tau, rho in [(0.5, 0.5, 2, 1), (0.3, 0.6, 4, 2)]:
            params = SmoothingParams(p_e, p_n)
            user_deleted = rng.random((draws, rho)) < p_n
            rating_coin = rng.random((draws, rho, tau)) < p_e
            cleared = (user_deleted | rating_coin.all(axis=2)).all(axis=1)
            expected = prob_all_removed_recsys(params, tau, rho)
            sigma = math.sqrt(expected * (1 - expected) / draws)
            assert abs(cleared.mean() - expected) <= 4 * sigma

        assert time.monotonic() - started < 60.0


def test_half_mass_is_necessary_for_inclusion_certificates():
    """Fuzzed include-mode decisions never certify once the overlap mass is <= 1/2."""
    with criterion("no inclusion certificate at overlap mass <= 1/2"):
        rng = np.random.default_rng(7)
        certified_seen = 0
        for _ in range(3000):
            params = SmoothingParams(rng.uniform(0, 0.99), rng.uniform(0, 0.99))
            tau = int(rng.integers(1, 12))
            rho = int(rng.integers(0, 25))
            num = int(rng.integers(1, 5000))
            top = int(rng.integers(0, num + 1))
            runner = int(rng.integers(0, num - top + 1))
            if top < runner:
                top, runner = runner, top
            alpha = float(rng.uniform(0.001, 0.2))
            num_classes = int(rng.integers(2, 10))
            counts = np.zeros((1, num_classes), dtype=np.int64)
            counts[0, :2] = top, runner
            table = VoteTable(counts=counts, abstains=[num - top - runner],
                              num_samples=num, params=params, degrees=[1],
                              provenance={})
            radius = certified_radii(table, tau, alpha, [0])[2][0]
            margin = reference_certify_node(top, runner, num, params,
                                            PerturbationBudget(rho=rho, tau=tau),
                                            alpha, num_classes)
            assert (margin is not None and margin > 0) == (radius >= rho)
            if radius >= rho:
                certified_seen += 1
                assert prob_all_removed(params, tau, rho) > 0.5
        assert certified_seen > 0  # the fuzz actually exercises both outcomes

        # Dense direct check on the closed form itself.
        p_removed = rng.uniform(0, 0.5, size=10**5)
        p_top = rng.uniform(0, 1, size=10**5)
        p_runner = rng.uniform(0, 1, size=10**5)
        margins = p_removed * (p_top - p_runner + 1.0) - 1.0
        assert margins.max() <= 1e-15


def test_confidence_bound_coverage():
    """One-sided bound violation rates stay within 3 sigma of the nominal level."""
    with criterion("confidence bound coverage at the nominal level"):
        rng = np.random.default_rng(5)
        trials, num = 10**4, 1000
        for level in (0.01, 0.005):
            sigma = math.sqrt(level * (1 - level) / trials)
            for p in (0.1, 0.5, 0.9):
                successes = rng.binomial(num, p, size=trials)
                lowers = np.array([clopper_pearson_lower(int(s), num, level)
                                   for s in successes])
                uppers = np.array([clopper_pearson_upper(int(s), num, level)
                                   for s in successes])
                assert np.mean(lowers > p) <= level + 3 * sigma
                assert np.mean(uppers < p) <= level + 3 * sigma


# Vote probabilities of the over-claim test, each in both modes, plus cases
# just below a rho = 1 boundary, where the true margin crosses zero between
# rho = 0 and rho = 1. The top probability certifies rho = 1 from
#   0.5720 with two classes in include mode,
#   0.7159 with two classes in exclude mode (of the votes; the isolation
#          mass, 0.9345 of the samples, is drawn as abstentions),
#   0.5220 with three classes and a third at 0.1 in include mode,
#   0.6533 with three classes and a third at 0.1 in exclude mode.
# Those cases smooth a node of degree 2 at p_e = 0.1, p_n = 0.8, so an
# exclude-mode table has about 65 voting samples of 1000. The voting cases
# smooth a node of degree 10 at p_e = 0.8, p_n = 0.3, isolated in 0.4549 of
# the samples: at tau = 5 and degree 2, exclude mode certifies rho = 1 only
# at an isolation mass of about 0.7 or more. In the voting cases the top
# probability certifies rho = 1 from
#   0.8737 with two classes,
#   0.8258 with three classes, the other two equal.
ISOLATING = (SmoothingParams(0.1, 0.8), 2)
VOTING = (SmoothingParams(0.8, 0.3), 10)
OVER_CLAIM_PROBS = {"tie": (0.5, 0.5), "sixty-forty": (0.6, 0.4),
                    "three-near-tie": (0.34, 0.33, 0.33),
                    "four-equal": (0.25,) * 4, "ten-equal": (0.1,) * 10}
OVER_CLAIM_CASES = [
    *[pytest.param(probs, mode, *ISOLATING, id=f"{name}-{mode}")
      for mode in ("include", "exclude")
      for name, probs in OVER_CLAIM_PROBS.items()],
    pytest.param((0.57, 0.43), "include", *ISOLATING, id="below-rho-1-include"),
    pytest.param((0.714, 0.286), "exclude", *ISOLATING, id="below-rho-1-exclude"),
    pytest.param((0.52, 0.38, 0.1), "include", *ISOLATING,
                 id="three-below-rho-1-include"),
    pytest.param((0.651, 0.249, 0.1), "exclude", *ISOLATING,
                 id="three-below-rho-1-exclude"),
    pytest.param((0.872, 0.128), "exclude", *VOTING,
                 id="voting-below-rho-1-exclude"),
    pytest.param((0.824, 0.088, 0.088), "exclude", *VOTING,
                 id="voting-three-below-rho-1-exclude")]


@pytest.mark.parametrize("probs, mode, params, degree", OVER_CLAIM_CASES)
def test_certified_radius_does_not_over_claim(probs, mode, params, degree):
    """Tables drawn from known probabilities certify past the radius those
    probabilities give at a rate within 3 sigma of alpha."""
    with criterion(f"over-claim rate at {probs} in {mode} mode"):
        tau, alpha, num_samples, rows = 5, 0.05, 1000, 5000
        # In exclude mode a node abstains whenever smoothing isolates it.
        p_isolated = (prob_all_removed(params, degree, 1) if mode == "exclude"
                      else 0.0)
        true = np.array(probs) * (1.0 - p_isolated)
        rng = np.random.default_rng([len(probs), mode == "exclude"])
        draws = rng.multinomial(num_samples, np.append(true, p_isolated),
                                size=rows)
        table = VoteTable(counts=draws[:, :-1], abstains=draws[:, -1],
                          num_samples=num_samples, params=params,
                          degrees=np.full(rows, degree), provenance={},
                          mode=mode)
        _, majority, radius = certified_radii(table, tau, alpha, np.arange(rows))

        # Each class's radius if its bounds were the true probabilities.
        runner = [np.delete(true, c).max() for c in range(true.size)]
        margin = margin_exclude if mode == "exclude" else margin_include
        retention = (node_retention_probs(params, degree) if mode == "exclude"
                     else ())

        def holds(rho, classes):
            return [margin(true[c], runner[c], prob_all_removed(params, tau, int(r)),
                           *retention) > 0.0 for r, c in zip(rho, classes)]

        true_radius = largest_certified_rho(holds, true.size)
        over_claimed = np.mean(radius > true_radius[majority])
        assert over_claimed <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / rows)


# Per-item inclusion probabilities of the recommender over-claim test, as
# (k, k_prime, ground-truth items, other items). Each vector sums to at most
# k_prime, the items a sample can include.
RECSYS_OVER_CLAIM = {
    # A ground-truth item tied with another at the K' = 3 cut (ranks 3 and
    # 4); the tie decides r = 2.
    "tie-at-cut": (3, 3, (0.6, 0.45, 0.2), (0.9, 0.45, 0.3, 0.1)),
    # r = 2 compares 0.46 with 0.44: certified at rho = 0 only.
    "near-tie": (3, 3, (0.6, 0.46, 0.2), (0.9, 0.44, 0.3, 0.1)),
    # r = 2 certifies rho = 1 from 0.587 on; 0.57 sits just below.
    "below-rho-1": (3, 3, (0.7, 0.57, 0.15), (0.9, 0.44, 0.1, 0.05)),
    "k-below-k-prime": (2, 4, (0.8, 0.5, 0.4), (0.7, 0.5, 0.5, 0.3, 0.2, 0.1)),
}


@pytest.mark.parametrize("case", RECSYS_OVER_CLAIM)
def test_certified_overlap_does_not_over_claim(case):
    """Tables drawn from known inclusion probabilities certify an overlap of
    r past the radius those probabilities give at a rate within 3 sigma of
    alpha, for every r."""
    with criterion(f"recommender over-claim rate at {case}"):
        k, k_prime, gt, others = RECSYS_OVER_CLAIM[case]
        params, tau, alpha, num_samples, users, degree = (
            SmoothingParams(0.1, 0.8), 5, 0.05, 1000, 3000, 3)
        true = np.array(gt + others)
        assert true.sum() <= k_prime
        rng = np.random.default_rng([len(gt), len(others), k])
        table = ItemVoteTable(counts=rng.binomial(num_samples, true,
                                                  size=(users, true.size)),
                              abstains=np.zeros(users), num_samples=num_samples,
                              params=params, degrees=np.full(users, degree),
                              provenance={}, k_prime=k_prime)
        ground_truths = {u: range(len(gt)) for u in range(users)}
        radii = certified_overlap_radii(table, ground_truths, k, tau, alpha)

        # The radius of each r if the bounds were the true probabilities.
        p_isolated = prob_all_removed_recsys(params, degree, 1)

        def holds(rho, rs):
            return [reference_overlap_from_bounds(
                        gt, others, k, k_prime,
                        prob_all_removed_recsys(params, tau, int(b)),
                        p_isolated) >= r + 1 for b, r in zip(rho, rs)]

        true_radius = largest_certified_rho(holds, k)
        over_claimed = np.mean(radii > true_radius, axis=0)
        assert np.all(over_claimed
                      <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / users))


def test_exhaustive_enumeration_equivalence(two_clique_graph, identity_model):
    """Exact enumeration reproduces sampled vote/item probabilities and decisions."""
    with criterion("exhaustive enumeration matches sampling and certificates"):
        # Graph fixture: 2 edges + 4 nodes = 6 random bits.
        params = SmoothingParams(p_e=0.45, p_n=0.25)
        exact = enumerate_graph_votes(two_clique_graph, params, identity_model)
        assert np.allclose(exact.sum(axis=1), 1.0, atol=1e-12)

        draws = 40_000
        table = collect_votes_evasion(identity_model, two_clique_graph, draws,
                                      params, master_seed=21, threads=2)
        freq = table.counts / draws
        sigma = np.sqrt(exact * (1 - exact) / draws)
        assert np.all(np.abs(freq - exact) <= 4 * sigma + 1e-12)

        tau = 2
        rho_grid = range(0, 8)
        nodes = np.arange(two_clique_graph.n)
        abstained, _, radius = certified_radii(table, tau, 0.01, nodes)
        for v in nodes:
            top_class, runner_class = np.argsort(-table.counts[v], kind="stable")[:2]
            top, runner = table.counts[v, [top_class, runner_class]]
            exact_top = exact[v, top_class]
            exact_runner = exact[v, runner_class]
            for rho in rho_grid:
                p_removed = prob_all_removed(params, tau, rho)
                exact_margin = margin_include(exact_top, exact_runner, p_removed)
                margin = reference_certify_node(
                    int(top), int(runner), draws, params,
                    PerturbationBudget(rho=rho, tau=tau), 0.01, 2)
                assert (margin is None) == abstained[v]
                assert (margin is not None and margin > 0) == (radius[v] >= rho)
                if radius[v] >= rho:
                    # sampled certificates are never unsound
                    assert exact_margin > 0
                if abs(exact_margin) > 0.05:
                    assert (radius[v] >= rho) == (exact_margin > 0)

        # Rating fixture: 2 users + 6 interactions = 8 random bits.
        matrix = InteractionMatrix(users=2, items=4,
                                   pairs=[(0, 0), (0, 1), (0, 2),
                                          (1, 1), (1, 2), (1, 3)])
        r_params = SmoothingParams(p_e=0.35, p_n=0.25)
        k_prime, k = 2, 2
        exact_items, exact_abstain = enumerate_item_probs(matrix, r_params, k_prime)
        item_draws = 20_000
        item_table = collect_item_votes(matrix, item_draws, r_params, k_prime,
                                        master_seed=31, threads=2)
        item_freq = item_table.counts / item_draws
        item_sigma = np.sqrt(exact_items * (1 - exact_items) / item_draws)
        assert np.all(np.abs(item_freq - exact_items) <= 4 * item_sigma + 1e-12)
        ab_freq = item_table.abstains / item_draws
        ab_sigma = np.sqrt(exact_abstain * (1 - exact_abstain) / item_draws)
        assert np.all(np.abs(ab_freq - exact_abstain) <= 4 * ab_sigma + 1e-12)

        ground_truth = np.array([1, 2])
        others = np.setdiff1d(np.arange(matrix.items), ground_truth)
        d_u = int(matrix.user_degrees[0])
        for rho in range(0, 4):
            budget = PerturbationBudget(rho=rho, tau=2)
            p_hat = prob_all_removed_recsys(r_params, budget.tau, budget.rho)
            p_iso = r_params.p_n + (1 - r_params.p_n) * r_params.p_e ** d_u
            r_exact = reference_overlap_from_bounds(
                exact_items[0, ground_truth], exact_items[0, others], k,
                k_prime, p_hat, p_iso)
            r_bounds = certify_user_overlap(item_table, 0, set(ground_truth),
                                            k, budget, alpha=0.01)
            # exact probabilities can only strengthen the certificate
            assert r_exact >= r_bounds


def test_edge_only_smoothing_cannot_certify_three_injections():
    """Edge deletion alone certifies nothing at rho=3, tau=5 for p_e <= 0.95."""
    with criterion("edge-deletion-only smoothing collapses at rho=3, tau=5"):
        labels = np.array([0, 1, 0, 1, 1])
        threshold = 0.5 ** (1 / 15)
        for p_e in (0.3, 0.5, 0.7, 0.9, 0.95):
            assert p_e < threshold  # hence p_e**15 < 0.5
            params = SmoothingParams(p_e=p_e, p_n=0.0)
            assert prob_all_removed(params, 5, 3) == pytest.approx(p_e**15)
            assert p_e**15 < 0.5
            table = perfect_table(labels, 2, 100_000, params)
            # The certified accuracy at rho = 3: the curve's point there, or
            # 0 past its last one.
            curve = certified_accuracy_curve(table, labels, tau=5, alpha=0.01)
            assert len(curve.points) <= 3 or certified_at(curve, 3) == 0.0
        # on-grid check: with p_e = 0.95 the curve reaches rho = 3 and is 0
        assert certified_at(curve, 3) == 0.0
        assert certified_at(curve, 0) == 1.0


def test_end_to_end_attack_soundness(sbm_fixture):
    """Realized attacks never push empirical accuracy below certified accuracy."""
    with criterion("empirical attacked accuracy dominates the certificate"):
        graph, split = sbm_fixture
        params = SmoothingParams(p_e=0.1, p_n=0.8)
        tau = 2
        spec = ClassifierSpec(hidden_dim=16, epochs=120, seed=42)
        model = train_with_noise(spec, graph, split, params)

        draws = 2000
        clean_votes = collect_votes_evasion(model, graph, draws, params,
                                            master_seed=1234, threads=2)
        curve = certified_accuracy_curve(clean_votes, graph.labels, tau=tau,
                                         alpha=0.01, nodes=split.test)
        assert certified_at(curve, 1) > 0  # the check must not be vacuous

        clean_acc = empirical_accuracy(clean_votes, clean_votes, graph.labels,
                                       split.test)[0]
        assert clean_acc >= certified_at(curve, 0)

        for point in curve.points:
            if point.rho == 0:
                continue
            budget = PerturbationBudget(rho=point.rho, tau=tau)
            plan = craft_injection(graph, budget, "centroid_flip",
                                   seed=500 + point.rho, split=split)
            attacked_graph = apply_attack(graph, plan)
            attacked_votes = collect_votes_evasion(model, attacked_graph, draws,
                                                   params, master_seed=1234,
                                                   threads=2)
            _, attacked_acc = empirical_accuracy(clean_votes, attacked_votes,
                                                 graph.labels, split.test)
            assert attacked_acc >= point.certified_accuracy


def test_curve_monotonicity_and_radius_area():
    """Curves are non-increasing in rho; the radius area equals the tail sum."""
    with criterion("curve monotonicity and radius-area identity"):
        rng = np.random.default_rng(17)
        for trial in range(20):
            n = int(rng.integers(5, 40))
            labels = rng.integers(0, 3, size=n)
            num = 2000
            counts = rng.multinomial(
                num, rng.dirichlet(alpha=[1.0, 1.0, 1.0]), size=n)
            strong = rng.random(n) < 0.7
            counts[strong] = 0
            counts[strong, labels[strong]] = num
            params = SmoothingParams(p_e=float(rng.uniform(0, 0.5)),
                                     p_n=float(rng.uniform(0.5, 0.95)))
            table = VoteTable(counts=counts.astype(np.int64),
                              abstains=np.zeros(n, dtype=np.int64),
                              num_samples=num, params=params,
                              degrees=np.ones(n, dtype=np.int64), provenance={})
            for tau in (1, 3):
                curve = certified_accuracy_curve(table, labels, tau, 0.01)
                values = [p.certified_accuracy for p in curve.points]
                assert all(a >= b for a, b in zip(values, values[1:]))
                assert values[-1] == 0.0
                acr = average_certified_radius(curve)
                tail_sum = math.fsum(values[1:])
                telescoped = math.fsum(
                    rho * (values[rho] - values[rho + 1])
                    for rho in range(len(values) - 1))
                assert abs(acr - tail_sum) <= 1e-12
                assert abs(acr - telescoped) <= 1e-12


def _pooled_rating_fixture(rng):
    """50 users in two taste groups; each rates 8 of its group's 12 items and
    holds out the other 4 as ground truth."""
    users, pool_size = 50, 12
    pairs = []
    ground_truths = {}
    for u in range(users):
        base = 0 if u < users // 2 else pool_size
        perm = rng.permutation(pool_size) + base
        pairs.extend((u, int(item)) for item in perm[:8])
        ground_truths[u] = [int(i) for i in perm[8:]]
    matrix = InteractionMatrix(users=users, items=2 * pool_size, pairs=pairs)
    return matrix, ground_truths


def test_recommender_desk_scale():
    """Zero-budget certified precision equals clean smoothed precision; the
    curve is non-increasing, reaches zero and equals the reference loop."""
    with criterion("recommender certificate at desk scale"):
        started = time.monotonic()
        rng = np.random.default_rng(77)
        matrix, ground_truths = _pooled_rating_fixture(rng)
        params = SmoothingParams(p_e=0.1, p_n=0.7)
        k, k_prime, tau = 4, 6, 3
        draws = 10_000
        table = collect_item_votes(matrix, draws, params, k_prime,
                                   master_seed=404, threads=2)

        curve = recommender_curve(table, ground_truths, k, tau, alpha=0.01)
        assert curve.points == reference_recommender_curve(
            table, ground_truths, k, params, tau, 0.01)
        precisions = [p.certified_precision for p in curve.points]
        assert precisions[0] > 0
        assert all(a >= b for a, b in zip(precisions, precisions[1:]))
        assert precisions[-1] == 0.0
        assert len(precisions) >= 3  # a non-trivial budget range certifies

        # Independent clean-precision computation: top-k rows of the vote
        # table (ties toward the lower item id) against the held-out items.
        overlaps = []
        for u, gt in ground_truths.items():
            counts = table.counts[u]
            top = np.lexsort((np.arange(matrix.items), -counts))[:k]
            overlaps.append(len(set(top.tolist()) & set(gt)) / k)
        clean_precision = float(np.mean(overlaps))
        assert abs(precisions[0] - clean_precision) <= 1e-12
        assert all(p <= clean_precision + 1e-12 for p in precisions)

        assert time.monotonic() - started < 300.0


@pytest.mark.skipif("SMOOTHCERT_CORA_EDGES" not in os.environ,
                    reason="full-scale benchmark files not available "
                           "(set SMOOTHCERT_CORA_EDGES / SMOOTHCERT_CORA_NODES)")
def test_full_scale_benchmark():
    """Optional long-running benchmark on the reference citation dataset.

    Expects certified accuracy near 0.729 at rho=10 (tau=5, p_n=0.9,
    N=100000, alpha=0.01) within a +-0.10 band (base-model hyperparameters
    are not pinned by any reference), and the node-deletion run to beat the
    edge-deletion-only baseline by 10x in radius area.
    """
    with criterion("full-scale benchmark band"):
        graph = load_node_classification_dataset(
            os.environ["SMOOTHCERT_CORA_EDGES"],
            os.environ["SMOOTHCERT_CORA_NODES"])
        split = seeded_split(graph, seed=0)
        threads = int(os.environ.get("SMOOTHCERT_THREADS", "4"))
        draws = int(os.environ.get("SMOOTHCERT_FULL_N", "100000"))
        spec = ClassifierSpec(hidden_dim=64, epochs=200, seed=0)

        params = SmoothingParams(p_e=0.0, p_n=0.9)
        model = train_with_noise(spec, graph, split, params)
        votes = collect_votes_evasion(model, graph, draws, params,
                                      master_seed=0, threads=threads)
        curve = certified_accuracy_curve(votes, graph.labels, tau=5,
                                         alpha=0.01, nodes=split.test)
        assert abs(certified_at(curve, 10) - 0.729) <= 0.10

        baseline_params = SmoothingParams(p_e=0.9, p_n=0.0)
        baseline_model = train_with_noise(spec, graph, split, baseline_params)
        baseline_votes = collect_votes_evasion(baseline_model, graph, draws,
                                               baseline_params, master_seed=0,
                                               threads=threads)
        baseline_curve = certified_accuracy_curve(
            baseline_votes, graph.labels, tau=5, alpha=0.01, nodes=split.test)
        assert (average_certified_radius(curve)
                >= 10 * average_certified_radius(baseline_curve))
