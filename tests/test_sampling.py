import math

import numpy as np
import pytest

from smoothcert import (Graph, InteractionMatrix, SmoothingParams,
                        derive_sample_seed, sample_smoothed_graph,
                        sample_smoothed_ratings)

MASK64 = (1 << 64) - 1


def mix_vectorized(master: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Independent numpy reimplementation of the seed mixer (test oracle)."""
    with np.errstate(over="ignore"):
        z = master + (index + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


class TestDeriveSampleSeed:
    def test_pure_function(self):
        assert derive_sample_seed(123, 45) == derive_sample_seed(123, 45)

    def test_matches_vectorized_oracle(self):
        rng = np.random.default_rng(0)
        masters = rng.integers(0, MASK64, size=200, dtype=np.uint64)
        indices = rng.integers(0, 2**32, size=200, dtype=np.uint64)
        expected = mix_vectorized(masters, indices)
        for m, i, e in zip(masters, indices, expected):
            assert derive_sample_seed(int(m), int(i)) == int(e)

    def test_no_collisions_between_first_two_indices(self):
        rng = np.random.default_rng(1)
        masters = rng.integers(0, MASK64, size=10**6, dtype=np.uint64)
        zero = mix_vectorized(masters, np.zeros(10**6, dtype=np.uint64))
        one = mix_vectorized(masters, np.ones(10**6, dtype=np.uint64))
        assert not np.any(zero == one)

    def test_no_collisions_between_adjacent_masters(self):
        rng = np.random.default_rng(2)
        masters = rng.integers(0, MASK64 - 1, size=10**6, dtype=np.uint64)
        indices = rng.integers(0, 2**32, size=10**6, dtype=np.uint64)
        a = mix_vectorized(masters, indices)
        b = mix_vectorized(masters + np.uint64(1), indices)
        assert not np.any(a == b)

    def test_negative_and_large_inputs_accepted(self):
        assert 0 <= derive_sample_seed(-5, 0) <= MASK64
        assert 0 <= derive_sample_seed(2**80, 3) <= MASK64


class TestGraphSampler:
    def test_zero_noise_is_identity(self, two_clique_graph):
        sample = sample_smoothed_graph(two_clique_graph, SmoothingParams(0, 0), 7)
        assert sample.graph == two_clique_graph
        assert not sample.deleted_nodes.any()

    def test_full_node_deletion(self, two_clique_graph):
        sample = sample_smoothed_graph(two_clique_graph, SmoothingParams(0, 1), 7)
        assert sample.deleted_nodes.all()
        assert sample.graph.num_edges == 0

    def test_deterministic_given_seed(self, sbm_fixture):
        graph, _ = sbm_fixture
        params = SmoothingParams(0.3, 0.4)
        a = sample_smoothed_graph(graph, params, 99)
        b = sample_smoothed_graph(graph, params, 99)
        assert a.graph == b.graph
        assert np.array_equal(a.deleted_nodes, b.deleted_nodes)
        c = sample_smoothed_graph(graph, params, 100)
        assert not np.array_equal(a.deleted_nodes, c.deleted_nodes) or a.graph != c.graph

    def test_sample_edges_subset_and_mask_isolated(self, sbm_fixture):
        graph, _ = sbm_fixture
        sample = sample_smoothed_graph(graph, SmoothingParams(0.5, 0.5), 5)
        original = set(map(tuple, graph.edges.tolist()))
        assert set(map(tuple, sample.graph.edges.tolist())) <= original
        assert np.all(sample.graph.degrees[sample.deleted_nodes] == 0)
        assert np.array_equal(sample.graph.features, graph.features)

    def test_edge_deletion_is_binomial(self):
        # 1000-edge path-free graph: 500 disjoint edges twice, p_n = 0.
        edges = [(2 * i, 2 * i + 1) for i in range(1000)]
        graph = Graph(2000, edges, np.zeros((2000, 1)))
        params = SmoothingParams(p_e=0.5, p_n=0.0)
        draws = 200
        survived = sum(
            sample_smoothed_graph(graph, params, seed).graph.num_edges
            for seed in range(draws))
        total = draws * 1000
        assert abs(survived - 0.5 * total) <= 4 * math.sqrt(total * 0.25)

    def test_edge_survival_probability(self, sbm_fixture):
        # Per-edge survival is (1 - p_n)^2 (1 - p_e).
        graph, _ = sbm_fixture
        params = SmoothingParams(p_e=0.3, p_n=0.2)
        expected = (1 - 0.2) ** 2 * (1 - 0.3)
        draws = 10**4 // 2
        total = graph.num_edges * draws
        survived = sum(
            sample_smoothed_graph(graph, params, seed).graph.num_edges
            for seed in range(draws))
        sigma = math.sqrt(total * expected * (1 - expected))
        assert abs(survived - expected * total) <= 4 * sigma

    def test_star_center_isolation_frequency(self):
        # A tau-leaf star: the center ends isolated exactly when it is deleted
        # or every incident edge is removed, the inner factor of the
        # all-removed probability.
        tau = 4
        params = SmoothingParams(p_e=0.3, p_n=0.4)
        edges = [(0, leaf) for leaf in range(1, tau + 1)]
        graph = Graph(tau + 1, edges, np.zeros((tau + 1, 1)))
        q = params.p_e + params.p_n - params.p_e * params.p_n
        expected = params.p_n + (1 - params.p_n) * q**tau
        draws = 10**5
        hits = 0
        for seed in range(draws):
            sample = sample_smoothed_graph(graph, params, seed)
            if sample.deleted_nodes[0] or sample.graph.degrees[0] == 0:
                hits += 1
        sigma = math.sqrt(draws * expected * (1 - expected))
        assert abs(hits - expected * draws) <= 4 * sigma

    def test_node_stream_independent_of_edges(self, two_clique_graph):
        # Adding edges must not perturb node-deletion outcomes.
        params = SmoothingParams(p_e=0.5, p_n=0.5)
        denser = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)],
                       two_clique_graph.features, two_clique_graph.labels)
        for seed in range(50):
            a = sample_smoothed_graph(two_clique_graph, params, seed)
            b = sample_smoothed_graph(denser, params, seed)
            assert np.array_equal(a.deleted_nodes, b.deleted_nodes)

    def test_probability_one_allowed_raw_but_not_certifiable(self):
        SmoothingParams(1.0, 0.0)
        with pytest.raises(ValueError):
            SmoothingParams(1.0, 0.0).require_certifiable()
        with pytest.raises(ValueError):
            SmoothingParams(1.5, 0.0)


class TestRatingsSampler:
    @pytest.fixture
    def matrix(self):
        return InteractionMatrix(users=3, items=5,
                                 pairs=[(0, 0), (0, 1), (0, 2), (1, 2), (2, 4)])

    def test_zero_noise_identity(self, matrix):
        smoothed, deleted = sample_smoothed_ratings(matrix, SmoothingParams(0, 0), 3)
        assert smoothed == matrix
        assert not deleted.any()

    def test_full_user_deletion(self, matrix):
        smoothed, deleted = sample_smoothed_ratings(matrix, SmoothingParams(0, 1), 3)
        assert smoothed.nnz == 0
        assert deleted.all()

    def test_user_wipeout_frequency_matches_closed_form(self, matrix):
        # User 0 has d = 3 ratings; all vanish with prob p_n + (1-p_n) p_e^d.
        params = SmoothingParams(p_e=0.5, p_n=0.5)
        expected = 0.5 + 0.5 * 0.5**3
        draws = 10**5
        hits = 0
        for seed in range(draws):
            smoothed, _ = sample_smoothed_ratings(matrix, params, seed)
            if smoothed.items_of(0).size == 0:
                hits += 1
        sigma = math.sqrt(draws * expected * (1 - expected))
        assert abs(hits - expected * draws) <= 4 * sigma

    def test_deterministic(self, matrix):
        params = SmoothingParams(0.4, 0.3)
        a = sample_smoothed_ratings(matrix, params, 11)
        b = sample_smoothed_ratings(matrix, params, 11)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])
