import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from oracles import (Region, exclude_mode_regions, include_mode_regions,
                     reference_certify_node, reference_radii,
                     solve_worst_case_margin, worst_case_probabilities)
from smoothcert import (PerturbationBudget, SmoothingParams,
                        VoteTable, abstain_test, certified_radii,
                        clopper_pearson_lower, clopper_pearson_upper,
                        majority_pvalue, margin, margin_exclude, margin_include,
                        node_retention_probs, pipeline, prob_all_removed,
                        prob_all_removed_recsys)
from smoothcert.certify import RHO_CAP, largest_certified_rho

probs = st.floats(min_value=0.0, max_value=0.99)
unit = st.floats(min_value=0.0, max_value=1.0)


def exclude_margin_oracle(p_top, p_runner, p_removed, p_iso, p_iso_attacked):
    """Eq-free recomputation through the generic region solver.

    The closed form bounds the top-class side with the clean isolation
    probability and the runner-up side with the degree-doubled bound, so each
    side is read off its own endpoint system.
    """
    top = worst_case_probabilities(
        exclude_mode_regions(p_removed, p_iso, p_iso), p_top, 0.0)[0]
    runner = worst_case_probabilities(
        exclude_mode_regions(p_removed, p_iso, p_iso_attacked), 0.0, p_runner)[1]
    return top - runner


def one_node(votes, num_samples, params, tau, num_classes, mode="include",
             degree=1, alpha=0.01):
    """(abstained, majority, radius) of a one-node table with ``num_classes``
    columns, voted under ``params`` in ``mode`` by a node of ``degree``.

    ``votes`` maps class ids to counts; the remaining samples abstain.
    """
    counts = np.zeros((1, num_classes), dtype=np.int64)
    for cls, count in votes.items():
        counts[0, cls] = count
    table = VoteTable(counts=counts, abstains=[num_samples - counts.sum()],
                      num_samples=num_samples, params=params, degrees=[degree],
                      provenance={}, mode=mode)
    abstained, majority, radius = certified_radii(table, tau, alpha, [0])
    return bool(abstained[0]), int(majority[0]), int(radius[0])


def certified(margin):
    """Whether a ``reference_certify_node`` result certifies."""
    return margin is not None and margin > 0.0


class TestProbAllRemoved:
    def test_zero_noise_never_removes(self):
        assert prob_all_removed(SmoothingParams(0, 0), 3, 1) == 0.0
        assert prob_all_removed(SmoothingParams(0, 0), 1, 5) == 0.0

    def test_edge_only_collapses_to_power(self):
        assert prob_all_removed(SmoothingParams(0.9, 0.0), 2, 1) == pytest.approx(0.81, abs=1e-12)
        p = SmoothingParams(0.7, 0.0)
        assert prob_all_removed(p, 3, 4) == pytest.approx(0.7 ** 12, rel=1e-12)

    def test_frozen_reference_value(self):
        p = SmoothingParams(0.1, 0.9)
        assert prob_all_removed(p, 5, 2) == pytest.approx(0.926219947, abs=1e-6)

    def test_rho_zero_is_one(self):
        assert prob_all_removed(SmoothingParams(0.5, 0.5), 7, 0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            prob_all_removed(SmoothingParams(0.5, 0.5), 0, 1)
        with pytest.raises(ValueError):
            prob_all_removed(SmoothingParams(0.5, 0.5), 1, -1)

    @given(p_e=probs, p_n=probs, tau=st.integers(1, 20), rho=st.integers(0, 50))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_budget_and_noise(self, p_e, p_n, tau, rho):
        params = SmoothingParams(p_e, p_n)
        base = prob_all_removed(params, tau, rho)
        assert 0.0 <= base <= 1.0
        assert prob_all_removed(params, tau, rho + 1) <= base + 1e-15
        assert prob_all_removed(params, tau + 1, rho) <= base + 1e-15
        bigger = SmoothingParams(min(p_e + 0.05, 1.0), p_n)
        assert prob_all_removed(bigger, tau, rho) >= base - 1e-15


class TestProbAllRemovedRecsys:
    def test_full_user_deletion_removes_everything(self):
        assert prob_all_removed_recsys(SmoothingParams(0.0, 1.0), 7, 3) == 1.0

    def test_frozen_reference_value(self):
        assert prob_all_removed_recsys(SmoothingParams(0.5, 0.5), 2, 1) == 0.625

    def test_rho_zero_is_one(self):
        assert prob_all_removed_recsys(SmoothingParams(0.5, 0.5), 2, 0) == 1.0


class TestNodeRetentionProbs:
    def test_zero_noise(self):
        assert node_retention_probs(SmoothingParams(0, 0), 3) == (0.0, 0.0)

    def test_frozen_reference_values(self):
        p_iso, p_iso_attacked = node_retention_probs(SmoothingParams(0.1, 0.9), 3)
        assert p_iso == pytest.approx(0.9753571, abs=1e-7)
        assert p_iso_attacked == pytest.approx(0.9567869, abs=1e-7)

    def test_clean_dominates_attacked_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            params = SmoothingParams(rng.uniform(0, 0.99), rng.uniform(0, 0.99))
            d = int(rng.integers(1, 30))
            p_iso, p_iso_attacked = node_retention_probs(params, d)
            assert p_iso >= p_iso_attacked

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            node_retention_probs(SmoothingParams(0.5, 0.5), 0)
        with pytest.raises(ValueError):
            node_retention_probs(SmoothingParams(1.0, 0.5), 3)


class TestArrayForms:
    """An integer array of budgets or degrees gives, at each element, the
    bits of the scalar call: numpy's array power would round some
    differently."""

    PARAMS = [SmoothingParams(0.1, 0.8), SmoothingParams(0.37, 0.11),
              SmoothingParams(0.93, 0.05), SmoothingParams(0.0, 0.6)]

    @staticmethod
    def values(seed, low, high):
        values = np.random.default_rng(seed).integers(low, high, 300)
        return np.concatenate([values, values[:50], [low, low]])  # repeats

    @staticmethod
    def assert_elementwise(array, scalars):
        assert array.dtype == np.float64 and array.shape == (len(scalars),)
        for got, want in zip(array, scalars):
            assert type(want) is float
            assert got.tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("function", [prob_all_removed, prob_all_removed_recsys])
    def test_all_removed_over_budgets(self, function, params):
        rho, tau = self.values(0, 0, 10**6), self.values(1, 1, 60)
        for fixed_tau in (1, 7, 2**64):
            self.assert_elementwise(function(params, fixed_tau, rho),
                                    [function(params, fixed_tau, int(r)) for r in rho])
        for fixed_rho in (0, 1, 13, 10**6):
            self.assert_elementwise(function(params, tau, fixed_rho),
                                    [function(params, int(t), fixed_rho) for t in tau])

    @pytest.mark.parametrize("params", PARAMS)
    def test_retention_over_degrees(self, params):
        degrees = self.values(2, 1, 500)
        clean, attacked = node_retention_probs(params, degrees)
        pairs = [node_retention_probs(params, int(d)) for d in degrees]
        self.assert_elementwise(clean, [p for p, _ in pairs])
        self.assert_elementwise(attacked, [p for _, p in pairs])

    def test_integers_give_a_float(self):
        params = SmoothingParams(0.3, 0.4)
        for tau, rho in ((3, 2), (np.int64(3), np.int64(2)), (2**64, 5), (4, 0)):
            assert type(prob_all_removed(params, tau, rho)) is float
            assert type(prob_all_removed_recsys(params, tau, rho)) is float
        assert all(type(p) is float for p in node_retention_probs(params, np.int64(3)))

    def test_an_empty_array_gives_an_empty_array(self):
        empty = np.zeros(0, dtype=np.int64)
        assert prob_all_removed(SmoothingParams(0.3, 0.4), 5, empty).shape == (0,)

    def test_arrays_are_validated_like_scalars(self):
        params = SmoothingParams(0.5, 0.5)
        for scalar, array in (
                (lambda: node_retention_probs(params, 0),
                 lambda: node_retention_probs(params, np.array([3, 0, 2]))),
                (lambda: prob_all_removed(params, 0, 1),
                 lambda: prob_all_removed(params, np.array([2, 0]), 1)),
                (lambda: prob_all_removed(params, 1, -1),
                 lambda: prob_all_removed(params, 1, np.array([4, -1])))):
            with pytest.raises(ValueError) as expected:
                scalar()
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
                array()


class TestMargins:
    def test_include_maximal_gap(self):
        assert margin_include(1.0, 0.0, 0.6) == pytest.approx(0.2, abs=1e-12)

    def test_include_frozen_value(self):
        assert margin_include(0.9, 0.05, 0.95) == pytest.approx(0.7575, abs=1e-12)

    @given(p_top=unit, p_runner=unit)
    @settings(max_examples=100, deadline=None)
    def test_include_never_positive_at_half(self, p_top, p_runner):
        assert margin_include(p_top, p_runner, 0.5) <= 1e-15

    def test_exclude_degenerate_cases(self):
        # No overlap mass at all: margin is -(1 - p_iso_attacked) < 0.
        assert margin_exclude(1.0, 0.0, 0.0, 0.3, 0.2) == pytest.approx(-0.8)
        # Zero noise: the all-removed probability is 0 and both isolation
        # probabilities vanish, margin -1.
        assert margin_exclude(0.9, 0.1, 0.0, 0.0, 0.0) == -1.0
        with pytest.raises(ValueError):
            margin_exclude(0.9, 0.1, 0.5, 1.0, 0.9)

    def test_exclude_frozen_value_against_solver(self):
        params = SmoothingParams(0.1, 0.9)
        p_removed = prob_all_removed(params, 5, 1)
        p_iso, p_iso_attacked = node_retention_probs(params, 3)
        margin = margin_exclude(0.9, 0.05, p_removed, p_iso, p_iso_attacked)
        assert margin == pytest.approx(0.7802, abs=5e-4)
        oracle = exclude_margin_oracle(
            min(0.9, 1 - p_iso), min(0.05, 1 - p_iso), p_removed, p_iso,
            p_iso_attacked)
        clipped = margin_exclude(min(0.9, 1 - p_iso), min(0.05, 1 - p_iso),
                                 p_removed, p_iso, p_iso_attacked)
        assert clipped == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("exclude", [False, True])
    def test_arrays_give_the_scalar_bits(self, exclude):
        rng = np.random.default_rng(3)
        top, runner, removed = rng.random((3, 500))
        attacked = rng.random(500) * 0.9 * exclude
        isolated = attacked + rng.random(500) * 0.09 * exclude
        got = margin(top, runner, removed, isolated, attacked)
        expected = [margin(*map(float, args))
                    for args in zip(top, runner, removed, isolated, attacked)]
        assert got.tobytes() == np.array(expected).tobytes()

    def test_an_array_with_a_node_that_never_votes_is_refused(self):
        with pytest.raises(ValueError, match="p_isolated must be < 1"):
            margin(np.full(3, 0.9), np.full(3, 0.1), np.full(3, 0.5),
                   np.array([0.2, 1.0, 0.3]), np.full(3, 0.1))


class TestWorstCaseSolver:
    def test_single_full_region(self):
        regions = [Region(1.0, 1.0)]
        assert solve_worst_case_margin(regions, 0.8, 0.3) == pytest.approx(0.5)

    def test_include_grid_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            p_removed = rng.uniform(0, 1)
            p_top = rng.uniform(0, 1)
            p_runner = rng.uniform(0, 1)
            closed = margin_include(p_top, p_runner, p_removed)
            solver = solve_worst_case_margin(include_mode_regions(p_removed),
                                             p_top, p_runner)
            assert abs(closed - solver) <= 1e-12

    def test_exclude_grid_equivalence(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            params = SmoothingParams(rng.uniform(0, 0.99), rng.uniform(0, 0.99))
            tau = int(rng.integers(1, 8))
            rho = int(rng.integers(0, 10))
            degree = int(rng.integers(1, 15))
            p_removed = prob_all_removed(params, tau, rho)
            p_iso, p_iso_attacked = node_retention_probs(params, degree)
            p_top = rng.uniform(0, 1 - p_iso)
            p_runner = rng.uniform(0, 1 - p_iso)
            closed = margin_exclude(p_top, p_runner, p_removed, p_iso,
                                    p_iso_attacked)
            oracle = exclude_margin_oracle(p_top, p_runner, p_removed, p_iso,
                                           p_iso_attacked)
            assert abs(closed - oracle) <= 1e-12

    def test_exclude_form_is_conservative_over_retention_interval(self):
        # The closed form never exceeds the exact optimum for any admissible
        # attacked isolation probability.
        rng = np.random.default_rng(13)
        for _ in range(500):
            params = SmoothingParams(rng.uniform(0, 0.99), rng.uniform(0, 0.99))
            p_removed = prob_all_removed(params, int(rng.integers(1, 6)),
                                         int(rng.integers(0, 8)))
            p_iso, p_iso_attacked = node_retention_probs(params, int(rng.integers(1, 12)))
            p_top = rng.uniform(0, 1 - p_iso)
            p_runner = rng.uniform(0, 1 - p_iso)
            closed = margin_exclude(p_top, p_runner, p_removed, p_iso,
                                    p_iso_attacked)
            for x in np.linspace(p_iso_attacked, p_iso, 7):
                exact = solve_worst_case_margin(
                    exclude_mode_regions(p_removed, p_iso, x), p_top, p_runner)
                assert closed <= exact + 1e-12

    def test_infeasible_bounds_raise(self):
        regions = [Region(0.4, 0.2), Region(0.0, 0.8)]
        with pytest.raises(ValueError, match="infeasible"):
            solve_worst_case_margin(regions, 0.5, 0.1)
        with pytest.raises(ValueError, match="infeasible"):
            solve_worst_case_margin(regions, 0.1, 0.5)

    def test_mass_validation(self):
        with pytest.raises(ValueError, match="sum"):
            solve_worst_case_margin([Region(0.8, 0.1), Region(0.8, 0.1)], 0.5, 0.1)
        with pytest.raises(ValueError):
            Region(-0.1, 0.2)

    def test_ratio_convention(self):
        assert Region(0.3, 0.0).ratio == math.inf
        assert Region(0.3, 0.6).ratio == 0.5


class TestVoteBounds:
    def test_zero_successes_lower_is_zero(self):
        assert clopper_pearson_lower(0, 100, 0.05 / 5) == 0.0

    def test_all_success_closed_form(self):
        # level 0.01, all 100 votes for the top class and none for the runner.
        lower = clopper_pearson_lower(100, 100, 0.01)
        upper = clopper_pearson_upper(0, 100, 0.01)
        assert lower == pytest.approx(0.01 ** (1 / 100), rel=1e-12)
        assert upper == pytest.approx(1 - 0.01 ** (1 / 100), rel=1e-12)
        assert lower == pytest.approx(0.9550, abs=1e-4)
        assert upper == pytest.approx(0.0450, abs=1e-4)

    def test_beta_quantile_oracle(self):
        # Cross-check against the inverted binomial tail (bisection oracle).
        level = 0.01
        n, k = 500, 412

        def tail_at(p):
            return stats.binom.sf(k - 1, n, p)

        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if tail_at(mid) < level:
                lo = mid
            else:
                hi = mid
        assert clopper_pearson_lower(k, n, level) == pytest.approx(lo, abs=1e-9)

    def test_upper_bisection_oracle(self):
        level = 0.025
        n, k = 300, 12

        def cdf_at(p):
            return stats.binom.cdf(k, n, p)

        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if cdf_at(mid) > level:
                lo = mid
            else:
                hi = mid
        assert clopper_pearson_upper(k, n, level) == pytest.approx(lo, abs=1e-9)

    @pytest.mark.parametrize("level", [1e-6, 1e-4, 0.003, 0.05, 0.5])
    @pytest.mark.parametrize("trials", [1, 7, 1000, 10**5])
    def test_arrays_match_scalar_calls(self, trials, level):
        # Bit for bit against scipy.stats, which the package does not import.
        successes = np.unique(np.linspace(0, trials, 23).astype(np.int64))
        assert successes[0] == 0 and successes[-1] == trials
        lowers = clopper_pearson_lower(successes, trials, level)
        uppers = clopper_pearson_upper(successes, trials, level)
        for s, lower, upper in zip(successes, lowers, uppers):
            scalar_lower = clopper_pearson_lower(int(s), trials, level)
            scalar_upper = clopper_pearson_upper(int(s), trials, level)
            assert type(scalar_lower) is float and type(scalar_upper) is float
            assert lower == scalar_lower and upper == scalar_upper
            assert lower == (float(stats.beta.ppf(level, s, trials - s + 1))
                             if s > 0 else 0.0)
            assert upper == (float(stats.beta.ppf(1 - level, s + 1, trials - s))
                             if s < trials else 1.0)

    @pytest.mark.parametrize("trials", [1, 9, 300, 10**5])
    def test_repeated_pairs_match_the_element_wise_call(self, trials):
        # The bounds are evaluated once per distinct (count, level) pair;
        # the bytes are those of one betaincinv call per element.
        rng = np.random.default_rng(trials)
        successes = rng.integers(0, trials + 1, size=5000)
        successes[:2] = 0, trials
        level = rng.choice([1e-4, 0.003, 0.01 / 3, 0.05], size=successes.size)
        lowers = clopper_pearson_lower(successes, trials, level)
        uppers = clopper_pearson_upper(successes, trials, level)
        s = successes
        expected_lower = np.where(
            s > 0, special.betaincinv(s, trials - s + 1, level), 0.0)
        expected_upper = np.where(
            s < trials, special.betaincinv(s + 1, trials - s, 1.0 - level), 1.0)
        assert lowers.tobytes() == expected_lower.tobytes()
        assert uppers.tobytes() == expected_upper.tobytes()
        # One level for every count.
        assert (clopper_pearson_upper(successes, trials, 0.05).tobytes()
                == clopper_pearson_upper(successes, trials,
                                         np.full(s.size, 0.05)).tobytes())
        assert type(clopper_pearson_lower(int(s[5]), trials, 0.01)) is float
        assert type(clopper_pearson_upper(int(s[5]), trials, 0.01)) is float

    def test_narrow_counts_are_widened(self):
        # A vote table's int8 counts: keyed by count x 5 levels, 127 would
        # wrap in int8, so the bounds take the counts as int64.
        narrow = np.array([0, 1, 64, 126, 127], dtype=np.int8)
        wide = narrow.astype(np.int64)
        level = np.array([0.01, 0.02, 0.03, 0.04, 0.05])
        for bound in (clopper_pearson_lower, clopper_pearson_upper):
            assert (bound(narrow, 127, level).tobytes()
                    == bound(wide, 127, level).tobytes())
            assert (bound(narrow.astype(np.int16), 1000, level).tobytes()
                    == bound(wide, 1000, level).tobytes())

    def test_array_validation_covers_every_element(self):
        with pytest.raises(ValueError, match="range"):
            clopper_pearson_lower(np.array([3, 11]), 10, 0.01)
        with pytest.raises(ValueError, match="range"):
            clopper_pearson_upper(np.array([-1, 3]), 10, 0.01)
        with pytest.raises(ValueError, match="trials"):
            clopper_pearson_upper(np.array([0]), 0, 0.01)


class TestAbstainTest:
    def test_tie_always_abstains(self):
        assert majority_pvalue(40, 40) == 1.0
        assert abstain_test(40, 40, 0.5)

    def test_unanimous_extreme(self):
        assert majority_pvalue(1000, 0) == pytest.approx(2.0 ** -999, rel=1e-9)
        assert not abstain_test(1000, 0, 0.01)

    def test_frozen_sixty_forty(self):
        p = majority_pvalue(60, 40)
        assert p == pytest.approx(0.0569, abs=1e-4)
        assert abstain_test(60, 40, 0.01)
        assert not abstain_test(60, 40, 0.10)

    def test_exact_tail_sum_oracle(self):
        for top, runner in [(60, 40), (7, 3), (520, 480), (3, 0)]:
            n = top + runner
            oracle = min(1.0, 2 * sum(math.comb(n, i) for i in range(top, n + 1)) / 2**n)
            assert majority_pvalue(top, runner) == pytest.approx(oracle, rel=1e-9)

    def test_no_votes_abstains(self):
        assert abstain_test(0, 0, 0.01)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="runner_votes"):
            majority_pvalue(3, -1)

    def test_matches_scipy_stats_bit_for_bit(self):
        # Every pair with top + runner <= 300, then a spread of pairs up to
        # n = 10**5, (0, 0) and (k, 0) among them.
        pairs = [(n - r, r) for n in range(301) for r in range(n // 2 + 1)]
        rng = np.random.default_rng(0)
        for n in [1000, 4097, 30_001, 99_999, 10**5]:
            runners = {0, 1, n // 2, n // 2 - 1, *rng.integers(0, n // 2 + 1, 60)}
            pairs += [(n - int(r), int(r)) for r in runners]
        top, runner = np.array(pairs).T
        expected = np.minimum(1.0, 2.0 * stats.binom.cdf(runner, top + runner, 0.5))
        closed = np.array([majority_pvalue(int(t), int(r)) for t, r in pairs])
        assert closed.tobytes() == expected.tobytes()

    def test_closed_form_matches_binomtest_decisions(self):
        # Every (top, runner) pair with top + runner <= 160.
        worst = 0.0
        for n in range(0, 161):
            for runner in range(0, n // 2 + 1):
                top = n - runner
                exact = stats.binomtest(top, n, 0.5).pvalue if n else 1.0
                closed = majority_pvalue(top, runner)
                worst = max(worst, abs(closed - exact) / exact)
                for alpha in (0.001, 0.01, 0.05, 0.1):
                    assert abstain_test(top, runner, alpha) == (exact > alpha)
        assert worst <= 1e-13


class TestCertifyNode:
    """One node at one budget: ``certified_radii`` read at rho, against the
    scalar ``reference_certify_node``."""

    params = SmoothingParams(0.1, 0.9)
    strong = {2: 990, 0: 5}

    def test_zero_budget_certifies_confident_votes(self):
        abstained, majority, radius = one_node(self.strong, 1000, self.params,
                                               5, 7)
        assert not abstained and majority == 2 and radius >= 0
        margin = reference_certify_node(990, 5, 1000, self.params,
                                        PerturbationBudget(rho=0, tau=5),
                                        0.01, 7)
        level = 0.01 / 7
        assert margin == pytest.approx(clopper_pearson_lower(990, 1000, level)
                                       - clopper_pearson_upper(5, 1000, level))

    def test_composed_reference_decision(self):
        # Chains the separately validated pieces: bounds at alpha/C, the
        # all-removed probability, and the include margin.
        budget = PerturbationBudget(rho=3, tau=5)
        margin = reference_certify_node(990, 5, 1000, self.params, budget,
                                        0.01, 7)
        lower = clopper_pearson_lower(990, 1000, 0.01 / 7)
        upper = clopper_pearson_upper(5, 1000, 0.01 / 7)
        expected = margin_include(lower, upper, prob_all_removed(self.params, 5, 3))
        assert margin == pytest.approx(expected, abs=1e-15)
        assert expected > 0
        assert one_node(self.strong, 1000, self.params, 5, 7)[2] >= 3

    def test_majority_below_half_never_certifies(self):
        # rho large enough that the all-removed probability drops below 1/2.
        params = SmoothingParams(0.1, 0.5)
        assert prob_all_removed(params, 5, 3) <= 0.5
        assert one_node(self.strong, 1000, params, 5, 7)[2] < 3
        assert not certified(reference_certify_node(
            990, 5, 1000, params, PerturbationBudget(rho=3, tau=5), 0.01, 7))

    def test_tied_votes_abstain(self):
        assert one_node({0: 500, 1: 500}, 1000, self.params, 5,
                        7) == (True, 0, -1)
        assert reference_certify_node(500, 500, 1000, self.params,
                                      PerturbationBudget(rho=1, tau=5),
                                      0.01, 7) is None

    def test_exclude_requires_degree(self):
        # A table carries one degree per node; one without them is refused.
        with pytest.raises(ValueError, match="degrees"):
            VoteTable(counts=[[5, 990]], abstains=[5], num_samples=1000,
                      params=self.params, degrees=[], provenance={},
                      mode="exclude")
        with pytest.raises(ValueError, match="degree"):
            reference_certify_node(990, 5, 1000, self.params,
                                   PerturbationBudget(rho=1, tau=5), 0.01, 7,
                                   mode="exclude")

    def test_exclude_certifies_with_degree(self):
        abstained, majority, radius = one_node({1: 20, 0: 1}, 1000, self.params,
                                               5, 7, "exclude", degree=4)
        assert not abstained and majority == 1
        for rho in range(max(radius, 0) + 2):
            margin = reference_certify_node(20, 1, 1000, self.params,
                                            PerturbationBudget(rho=rho, tau=5),
                                            0.01, 7, "exclude", degree=4)
            assert certified(margin) == (rho <= radius)

    def test_rejects_probability_one(self):
        with pytest.raises(ValueError):
            one_node(self.strong, 1000, SmoothingParams(1.0, 0.0), 5, 7)

    @given(p_removed=unit, p_top=unit, p_runner=unit,
           bump=st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=200, deadline=None)
    def test_margin_monotone_in_vote_bounds(self, p_removed, p_top, p_runner,
                                            bump):
        base = margin_include(p_top, p_runner, p_removed)
        assert margin_include(min(1.0, p_top + bump), p_runner, p_removed) \
            >= base - 1e-15
        assert margin_include(p_top, min(1.0, p_runner + bump), p_removed) \
            <= base + 1e-15
        excl = margin_exclude(p_top, p_runner, p_removed, 0.7, 0.6)
        assert margin_exclude(min(1.0, p_top + bump), p_runner, p_removed,
                              0.7, 0.6) >= excl - 1e-15
        assert margin_exclude(p_top, min(1.0, p_runner + bump), p_removed,
                              0.7, 0.6) <= excl + 1e-15

    @given(p_e=probs, p_n=probs, tau=st.integers(1, 10), rho=st.integers(0, 30),
           top=st.integers(0, 1000))
    @settings(max_examples=300, deadline=None)
    def test_half_mass_necessary_condition(self, p_e, p_n, tau, rho, top):
        # Include mode can only certify while the all-removed probability
        # stays above one half.
        params = SmoothingParams(p_e, p_n)
        _, _, radius = one_node({0: top, 1: 1000 - top}, 1000, params, tau, 4)
        if radius >= 0:
            assert prob_all_removed(params, tau, radius) > 0.5
        margin = reference_certify_node(max(top, 1000 - top), min(top, 1000 - top),
                                        1000, params,
                                        PerturbationBudget(rho=rho, tau=tau), 0.01, 4)
        assert certified(margin) == (radius >= rho)

    @given(p_e=probs, p_n=probs, tau=st.integers(1, 8), rho=st.integers(1, 12),
           degree=st.integers(1, 10), mode=st.sampled_from(["include", "exclude"]))
    @settings(max_examples=200, deadline=None)
    def test_certified_budgets_are_downward_closed(self, p_e, p_n, tau, rho,
                                                   degree, mode):
        params = SmoothingParams(p_e, p_n)
        votes = {0: 960, 1: 20}
        _, _, radius = one_node(votes, 1000, params, tau, 3, mode, degree)
        margin = reference_certify_node(960, 20, 1000, params,
                                        PerturbationBudget(rho=rho, tau=tau),
                                        0.01, 3, mode, degree=degree)
        assert certified(margin) == (radius >= rho)
        if radius >= rho:
            assert certified(reference_certify_node(
                960, 20, 1000, params, PerturbationBudget(rho - 1, tau), 0.01, 3,
                mode, degree=degree))
            assert one_node(votes, 1000, params, max(1, tau - 1), 3, mode,
                            degree)[2] >= rho


class TestMaxCertifiedRho:
    """The per-node radius of ``certified_radii`` against a scan of the
    scalar ``reference_certify_node``."""

    params = SmoothingParams(0.1, 0.9)

    def scan_oracle(self, top, runner, num_samples, params, tau,
                    mode="include", degree=None):
        best = -1
        for rho in range(0, 2000):
            if not certified(reference_certify_node(
                    top, runner, num_samples, params, PerturbationBudget(rho, tau),
                    0.01, 7, mode, degree=degree)):
                break
            best = rho
        return best

    def radius(self, top, runner, num_samples, params, tau, mode="include",
               degree=1):
        """(abstained, radius) of a seven-class one-node table voting ``top``
        for class 0 and ``runner`` for class 1."""
        abstained, majority, radius = one_node({0: top, 1: runner}, num_samples,
                                               params, tau, 7, mode, degree)
        assert majority == 0
        return abstained, radius

    def test_matches_full_scan(self):
        for tau in (1, 2, 5, 10):
            got = self.radius(990, 5, 1000, self.params, tau)
            assert got == (False, self.scan_oracle(990, 5, 1000, self.params,
                                                   tau))
            assert got[1] > 0 or tau > 20

    def test_edge_only_smoothing_at_090(self):
        # tau = 5 with p_e = 0.9 leaves the all-removed probability at
        # 0.9^5 = 0.59 for a single injected node, so the scan (not mental
        # arithmetic) decides whether rho = 1 certifies.
        params = SmoothingParams(0.9, 0.0)
        got = self.radius(100000, 0, 100000, params, 5)
        assert got[1] == self.scan_oracle(100000, 0, 100000, params, 5)
        got_weak = self.radius(700, 300, 1000, params, 5)
        assert got_weak[1] == self.scan_oracle(700, 300, 1000, params, 5)

    def test_abstain_flag(self):
        assert self.radius(10, 10, 20, self.params, 5) == (True, -1)

    def test_exclude_mode_scan(self):
        # Realizable stats: abstentions track the isolation probability of a
        # degree-6 node at these noise levels, so the vote bound stays below
        # the non-isolation mass and the half-mass cutoff loses nothing.
        got = self.radius(40, 1, 1000, self.params, 5, "exclude", degree=6)
        assert got == (False, self.scan_oracle(40, 1, 1000, self.params, 5,
                                               "exclude", degree=6))
        assert got[1] == 3

    def test_isolated_node_in_exclude_mode_has_no_radius(self):
        assert self.radius(990, 5, 1000, self.params, 5, "exclude",
                           degree=0) == (False, -1)
        with pytest.raises(ValueError, match="degrees"):
            VoteTable(counts=[[990, 5]], abstains=[5], num_samples=1000,
                      params=self.params, degrees=[0, 0], provenance={},
                      mode="exclude")

    @given(p_e=probs, p_n=probs, tau=st.integers(1, 8),
           mode=st.sampled_from(["include", "exclude"]),
           nodes=st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000),
                                    st.integers(0, 10)), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_radii_equal_the_scan_oracle(self, p_e, p_n, tau, mode, nodes):
        # Each node votes a for class 0, then up to b for class 1 and the
        # rest for class 2, and has the given degree.
        counts = [[a, min(b, 1000 - a), 1000 - a - min(b, 1000 - a)]
                  for a, b, _ in nodes]
        table = VoteTable(counts=counts, abstains=np.zeros(len(nodes)),
                          num_samples=1000, params=SmoothingParams(p_e, p_n),
                          degrees=[d for _, _, d in nodes], provenance={},
                          mode=mode)
        rows = np.arange(len(nodes))
        for got, expected in zip(certified_radii(table, tau, 0.01, rows),
                                 reference_radii(table, tau, 0.01, rows)):
            assert np.array_equal(got, expected)

    def test_large_radius_takes_a_logarithmic_search(self, monkeypatch):
        # 960 and 20 of 1000 votes, 20 abstentions: the radius runs to
        # hundreds of thousands, which a scan reaches one budget at a time.
        table = VoteTable(counts=[[960, 20]], abstains=[20], num_samples=1000,
                          params=SmoothingParams(0.99, 0.99), degrees=[1],
                          provenance={})
        steps = []  # each search step evaluates the all-removed probability once
        removed = pipeline.prob_all_removed
        monkeypatch.setattr(pipeline, "prob_all_removed",
                            lambda *args: steps.append(args) or removed(*args))
        radius = certified_radii(table, 1, 0.01, [0])[2]
        assert radius.tolist() == reference_radii(table, 1, 0.01, [0])[2].tolist()
        assert radius[0] > 10**5
        assert 0 < len(steps) <= 2 * math.ceil(math.log2(radius[0] + 2)) + 2

    def test_ties_go_to_the_lower_class(self):
        assert one_node({0: 5, 1: 7, 2: 7}, 19, self.params, 5,
                        4) == (True, 1, -1)


GRID = np.arange(RHO_CAP + 1)
# Each row's last passing budget: small, anywhere, or at the cap's edges,
# where -1 fails at rho = 0 and 2 * RHO_CAP always holds.
last_passing = st.one_of(st.integers(-3, 40), st.integers(-1, RHO_CAP + 3),
                         st.sampled_from([-1, 0, RHO_CAP - 1, RHO_CAP,
                                          2 * RHO_CAP]))


class TestLargestCertifiedRho:
    """The radius search against a scan of the same monotone predicate."""

    @staticmethod
    def scan(holds, row):
        """The budget before the first failing one of 0..RHO_CAP."""
        ok = np.asarray(holds(GRID, row))
        return RHO_CAP if ok.all() else int(np.argmin(ok)) - 1

    @given(last=st.lists(last_passing, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_a_scan(self, last):
        last = np.array(last, dtype=np.int64)
        calls = np.zeros(last.size, dtype=np.int64)

        def threshold(rho, live):
            return rho <= last[live]

        def holds(rho, live):
            assert np.all((rho >= 0) & (rho <= RHO_CAP))
            assert np.unique(live).size == live.size
            # Every row's first test is at rho = 0.
            assert np.all((calls[live] > 0) | (rho == 0))
            calls[live] += 1
            return threshold(rho, live)

        radius = largest_certified_rho(holds, last.size)
        assert radius.tolist() == [self.scan(threshold, j)
                                   for j in range(last.size)]
        assert np.all(calls <= 2 * np.ceil(np.log2(radius + 2)) + 2)
