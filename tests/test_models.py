import tracemalloc
from contextlib import suppress

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from oracles import (neighbors, normalized_adjacency, reference_predict,
                     reference_train_predict, reference_train_with_noise)
from smoothcert import (ClassifierSpec, DataSplit, Graph, SmoothingParams,
                        derive_sample_seed, generate_sbm, predict,
                        sample_smoothed_graph, train_predict_end_to_end,
                        train_with_noise)
from smoothcert import models
from smoothcert.models import (TrainedModel, feature_transform,
                               normalized_operator, predict_rows)

KINDS = ("message_passing_2layer", "feature_mlp")


def append_isolated(graph, count, rng):
    """Add ``count`` isolated nodes with arbitrary features."""
    features = np.concatenate(
        [graph.features, 10.0 * rng.standard_normal((count, graph.num_features))])
    labels = np.concatenate([graph.labels, np.full(count, -1, dtype=np.int64)])
    return Graph(graph.n + count, graph.edges, features, labels,
                 num_classes=graph.num_classes)


class TestPredict:
    def test_two_clique_hand_forward(self, two_clique_graph, identity_model):
        # With identity weights the logits are two rounds of mean
        # aggregation: every node averages with its clique partner, which
        # keeps each clique on its own class.
        preds = predict(identity_model, two_clique_graph)
        assert preds.tolist() == [0, 0, 1, 1]

    def test_isolated_node_flips_its_own_prediction(self, two_clique_graph,
                                                    identity_model):
        # Node 1 carries slightly flipped features; without its clique edge
        # it aggregates only itself and crosses the decision boundary.
        lonely = Graph(4, [(2, 3)], two_clique_graph.features,
                       two_clique_graph.labels)
        preds = predict(identity_model, lonely)
        assert preds.tolist() == [0, 1, 1, 1]

    def test_zero_features_give_constant_prediction(self, identity_model):
        graph = Graph(5, [(0, 1), (2, 3)], np.zeros((5, 2)))
        preds = predict(identity_model, graph)
        assert len(set(preds.tolist())) == 1

    def test_dimension_mismatch(self, identity_model):
        graph = Graph(2, [(0, 1)], np.zeros((2, 3)))
        with pytest.raises(ValueError, match="dimension"):
            predict(identity_model, graph)


def assert_same_arrays(built, expected):
    """Equal values and dtypes."""
    assert built.dtype == expected.dtype and np.array_equal(built, expected)


class TestNormalizedOperator:
    """The operator holds the filled rows of the oracle's adjacency."""

    def assert_matches_oracle(self, graph, rows=None):
        built = normalized_operator(graph.n, graph.edges, rows)
        filled = graph.degrees > 0
        filled[np.arange(graph.n) if rows is None else rows] = True
        assert built.num_nodes == graph.n
        assert_same_arrays(built.rows, np.flatnonzero(filled))
        oracle = normalized_adjacency(graph)[built.rows]
        for part in ("indptr", "indices", "data"):
            assert_same_arrays(getattr(built, part), getattr(oracle, part))

    def test_matches_oracle_on_fixtures(self, sbm_fixture, two_clique_graph):
        graph, _ = sbm_fixture
        self.assert_matches_oracle(graph)
        self.assert_matches_oracle(two_clique_graph)

    def test_matches_oracle_with_isolated_nodes(self, sbm_fixture):
        graph, _ = sbm_fixture
        self.assert_matches_oracle(append_isolated(graph, 5, np.random.default_rng(2)))
        for seed in range(5):
            sample = sample_smoothed_graph(graph, SmoothingParams(0.3, 0.6), seed)
            assert (sample.graph.degrees == 0).any()
            self.assert_matches_oracle(sample.graph)

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_matches_oracle_without_edges(self, n):
        graph = Graph(n, [], np.zeros((n, 1)))
        self.assert_matches_oracle(graph)
        self.assert_matches_oracle(graph, np.arange(n)[::2])

    def test_rows_keep_only_the_listed_edgeless_nodes(self, sbm_fixture):
        graph, _ = sbm_fixture
        sample = sample_smoothed_graph(graph, SmoothingParams(0.3, 0.6), 0).graph
        listed = np.flatnonzero(sample.degrees == 0)[::2]
        built = normalized_operator(sample.n, sample.edges, listed)
        assert 0 < built.rows.size < sample.n
        self.assert_matches_oracle(sample, listed)


class TestIsolatedNodeIndependence:
    @pytest.mark.parametrize("kind", ["message_passing_2layer", "feature_mlp"])
    def test_appending_isolated_nodes_changes_nothing(self, sbm_fixture, kind):
        graph, split = sbm_fixture
        spec = ClassifierSpec(kind=kind, hidden_dim=8, epochs=30, seed=4)
        model = train_with_noise(spec, graph, split, SmoothingParams(0.2, 0.3))
        base = predict(model, graph)
        rng = np.random.default_rng(17)
        for count in (1, 7):
            extended = append_isolated(graph, count, rng)
            preds = predict(model, extended)
            assert np.array_equal(preds[:graph.n], base)

    def test_mlp_ignores_adjacency(self, sbm_fixture):
        graph, split = sbm_fixture
        spec = ClassifierSpec(kind="feature_mlp", hidden_dim=8, epochs=30, seed=4)
        model = train_with_noise(spec, graph, split, SmoothingParams(0.2, 0.3))
        rewired = Graph(graph.n, [(0, 1)], graph.features, graph.labels)
        assert np.array_equal(predict(model, graph), predict(model, rewired))


class TestTrainWithNoise:
    def test_deterministic(self, sbm_fixture):
        graph, split = sbm_fixture
        spec = ClassifierSpec(hidden_dim=8, epochs=20, seed=9)
        params = SmoothingParams(0.3, 0.5)
        a = train_with_noise(spec, graph, split, params)
        b = train_with_noise(spec, graph, split, params)
        for key in a.weights:
            assert np.array_equal(a.weights[key], b.weights[key])

    def test_zero_noise_matches_fixed_sample_training(self, sbm_fixture):
        # With p_e = p_n = 0 every epoch sees the clean graph, so noisy
        # training must coincide with training on the single clean sample.
        graph, split = sbm_fixture
        spec = ClassifierSpec(hidden_dim=8, epochs=15, seed=2)
        noisy = train_with_noise(spec, graph, split, SmoothingParams(0, 0))
        preds = train_predict_end_to_end(spec, graph, split)
        assert np.array_equal(predict(noisy, graph), preds)

    def test_separable_fixture_reaches_high_accuracy(self, sbm_fixture):
        graph, split = sbm_fixture
        spec = ClassifierSpec(hidden_dim=16, epochs=150, seed=1)
        model = train_with_noise(spec, graph, split, SmoothingParams(0.1, 0.2))
        preds = predict(model, graph)
        test = split.test
        accuracy = np.mean(preds[test] == graph.labels[test])
        assert accuracy > 0.9

        # Independent oracle: nearest class centroid after two rounds of
        # neighborhood averaging separates the blocks as well.
        averaged = graph.features.copy()
        for _ in range(2):
            out = averaged.copy()
            for v in range(graph.n):
                nbrs = neighbors(graph, v)
                out[v] = (averaged[v] + averaged[nbrs].sum(axis=0)) / (1 + nbrs.size)
            averaged = out
        centroids = np.stack([averaged[graph.labels == c].mean(axis=0)
                              for c in range(graph.num_classes)])
        oracle = np.argmin(
            ((averaged[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
        assert np.mean(oracle[test] == graph.labels[test]) > 0.9

    def test_empty_split_rejected(self, sbm_fixture):
        graph, _ = sbm_fixture
        empty = DataSplit(train=[], validation=[0], test=[1])
        with pytest.raises(ValueError, match="empty"):
            train_with_noise(ClassifierSpec(epochs=1), graph, empty,
                             SmoothingParams(0, 0))

    def test_unlabeled_training_node_rejected(self):
        graph = Graph(4, [(0, 1), (2, 3)], np.zeros((4, 2)),
                      labels=[0, -1, 1, 1])
        split = DataSplit(train=[0, 1], validation=[2], test=[3])
        with pytest.raises(ValueError, match="label"):
            train_with_noise(ClassifierSpec(epochs=1), graph, split,
                             SmoothingParams(0, 0))


class TestTrainPredictEndToEnd:
    def test_nothing_to_train_on_gives_no_predictions(self, two_clique_graph):
        # Every node deleted: no training node keeps an edge.
        sample = sample_smoothed_graph(two_clique_graph, SmoothingParams(0, 1), 3)
        split = DataSplit(train=[0, 2], validation=[1], test=[3])
        assert train_predict_end_to_end(ClassifierSpec(epochs=1), sample.graph,
                                        split) is None


class TestMatchesReferenceLoops:
    """The shared training loop and forward pass against the separate
    loops and the single-graph forward they replaced, bit for bit."""

    @pytest.fixture(params=[3, 8, 21])
    def seeded(self, request):
        seed = request.param
        graph, split = generate_sbm(48, 2, 0.25, 0.04, 4, seed=seed)
        return seed, graph, split

    @pytest.mark.parametrize("kind", KINDS)
    def test_noisy_training_and_predict(self, seeded, kind):
        seed, graph, split = seeded
        spec = ClassifierSpec(kind=kind, hidden_dim=6, epochs=12, seed=seed)
        params = SmoothingParams(0.3, 0.4)
        model = train_with_noise(spec, graph, split, params)
        reference = reference_train_with_noise(spec, graph, split, params)
        assert model.weights.keys() == reference.weights.keys()
        for key, value in reference.weights.items():
            assert np.array_equal(model.weights[key], value)
        transformed = feature_transform(model, graph.features)
        graphs = [graph] + [sample_smoothed_graph(graph, params, i).graph
                            for i in range(4)]
        for g in graphs:
            expected = reference_predict(reference, g)
            assert np.array_equal(predict(model, g), expected)
            assert np.array_equal(
                predict_rows(model, transformed, np.arange(g.n), g.edges), expected)

    @pytest.mark.parametrize("kind", KINDS)
    def test_train_predict(self, seeded, kind, monkeypatch):
        seed, graph, split = seeded
        spec = ClassifierSpec(kind=kind, hidden_dim=6, epochs=12, seed=seed)
        fitted = capture_fit(monkeypatch)
        bypassed = 0
        for i in range(6):
            sample = sample_smoothed_graph(graph, SmoothingParams(0.3, 0.4),
                                           derive_sample_seed(seed, i)).graph
            bypassed += (sample.degrees[split.train] == 0).any()
            preds = train_predict_end_to_end(spec, sample, split)
            ref_preds, ref_weights = reference_train_predict(spec, sample, split)
            assert np.array_equal(preds, ref_preds)
            weights = fitted.pop()
            for key, value in ref_weights.items():
                assert np.array_equal(weights[key], value)
        assert bypassed  # some sample must leave a training node isolated


def capture_fit(monkeypatch):
    """Patch ``models._fit`` to keep each training's weights; returns the list."""
    fitted = []
    fit = models._fit
    monkeypatch.setattr(models, "_fit",
                        lambda *args: fitted.append(fit(*args)) or fitted[-1])
    return fitted


def assert_same_bits(weights, reference):
    assert weights.keys() == reference.keys()
    for key, value in reference.items():
        assert weights[key].tobytes() == value.tobytes(), key


class TestLiveRowsMatchReferenceLoops:
    """Training on the rows the loss can reach gives the reference loops'
    weights, bit for bit, where most rows are isolated. OpenBLAS rounds a
    product row by its position, and its kernels work in blocks of four
    rows, so every residue of n mod 4 is covered."""

    @pytest.fixture(params=[0, 1, 2, 3], ids=lambda r: f"n{96 + r}")
    def graph(self, request):
        graph, split = generate_sbm(96, 2, 0.2, 0.03, 8, seed=11)
        rng = np.random.default_rng(request.param)
        return append_isolated(graph, request.param, rng), split

    @pytest.mark.parametrize("kind", KINDS)
    def test_noisy_training(self, graph, kind):
        graph, split = graph
        spec = ClassifierSpec(kind=kind, hidden_dim=64, epochs=15, seed=5)
        params = SmoothingParams(0.2, 0.8)
        model = train_with_noise(spec, graph, split, params)
        reference = reference_train_with_noise(spec, graph, split, params)
        assert_same_bits(model.weights, reference.weights)
        # Some epoch's sample isolates a training node, which stays live.
        assert any((sample_smoothed_graph(graph, params, derive_sample_seed(5, epoch))
                    .graph.degrees[split.train] == 0).any() for epoch in range(15))

    @pytest.mark.parametrize("kind", KINDS)
    def test_poisoning_training(self, graph, kind, monkeypatch):
        graph, split = graph
        spec = ClassifierSpec(kind=kind, hidden_dim=64, epochs=15, seed=5)
        fitted = capture_fit(monkeypatch)
        bypassed = 0
        for i in range(3):
            sample = sample_smoothed_graph(graph, SmoothingParams(0.2, 0.7), i).graph
            assert (sample.degrees == 0).mean() > 0.5
            bypassed += (sample.degrees[split.train] == 0).any()
            preds = train_predict_end_to_end(spec, sample, split)
            ref_preds, ref_weights = reference_train_predict(spec, sample, split)
            assert preds.tobytes() == ref_preds.tobytes()
            assert_same_bits(fitted.pop(), ref_weights)
        assert bypassed


class TestOneHiddenUnit:
    """At one hidden unit numpy sums ``d_z1``'s one column pairwise, not a
    row at a time, so the rows outside the live ones change the bits of
    ``b1``'s gradient: the sum must keep its n rows."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_weights_match_reference_loops(self, kind, monkeypatch):
        graph, split = generate_sbm(96, 2, 0.2, 0.03, 8, seed=0)
        spec = ClassifierSpec(kind=kind, hidden_dim=1, epochs=15, seed=0)
        params = SmoothingParams(0.2, 0.8)
        assert_same_bits(train_with_noise(spec, graph, split, params).weights,
                         reference_train_with_noise(spec, graph, split, params).weights)
        fitted = capture_fit(monkeypatch)
        for i in range(4):
            sample = sample_smoothed_graph(graph, SmoothingParams(0.2, 0.7), i).graph
            preds = train_predict_end_to_end(spec, sample, split)
            ref_preds, ref_weights = reference_train_predict(spec, sample, split)
            assert preds.tobytes() == ref_preds.tobytes()
            assert_same_bits(fitted.pop(), ref_weights)


class TestPaperWidthMatchesReferenceLoops:
    """Bit identity at Cora's width (1433 sparse binary features, 7 classes),
    where the two weight-gradient products write into views of the gradient
    vector. Every residue of n mod 4 is covered, as OpenBLAS rounds a row of
    a product by its position."""

    @pytest.fixture(scope="class", params=[0, 1, 2, 3], ids=lambda r: f"n{98 + r}")
    def graph(self, request):
        sbm, split = generate_sbm(98, 7, 0.3, 0.01, 7, seed=4)
        n = sbm.n + request.param  # padded with unlabeled isolated nodes
        features = (np.random.default_rng(request.param).random((n, 1433))
                    < 0.013).astype(np.float64)
        labels = np.concatenate([sbm.labels, np.full(request.param, -1)])
        return Graph(n, sbm.edges, features, labels, num_classes=7), split

    @pytest.mark.parametrize("p_n", [0.3, 0.8])
    @pytest.mark.parametrize("hidden", [1, 64])
    @pytest.mark.parametrize("kind", KINDS)
    def test_weights_and_predictions(self, graph, kind, hidden, p_n, monkeypatch):
        graph, split = graph
        spec = ClassifierSpec(kind=kind, hidden_dim=hidden, epochs=6, seed=1)
        params = SmoothingParams(0.2, p_n)
        assert_same_bits(train_with_noise(spec, graph, split, params).weights,
                         reference_train_with_noise(spec, graph, split, params).weights)
        sample = sample_smoothed_graph(graph, params, 7).graph
        fitted = capture_fit(monkeypatch)
        preds = train_predict_end_to_end(spec, sample, split)
        ref_preds, ref_weights = reference_train_predict(spec, sample, split)
        assert preds.tobytes() == ref_preds.tobytes()
        assert_same_bits(fitted.pop(), ref_weights)


def assert_one_vector(weights):
    """``w1, b1, w2, b2`` are C-contiguous views that tile one contiguous
    float64 vector in that order."""
    arrays = [weights[key] for key in ("w1", "b1", "w2", "b2")]
    vector = arrays[0]
    while vector.base is not None:
        vector = vector.base
    assert vector.ndim == 1 and vector.dtype == np.float64
    assert vector.flags.c_contiguous
    assert vector.size == sum(array.size for array in arrays)
    address = vector.__array_interface__["data"][0]
    for array in arrays:
        assert array.dtype == np.float64 and array.flags.c_contiguous
        assert np.shares_memory(array, vector)
        assert array.__array_interface__["data"][0] == address
        address += array.nbytes


class TestParameterVector:
    """Both trainers return the parameters as views of one flat vector."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_trained_weights_are_views_of_one_vector(self, sbm_fixture, kind,
                                                     monkeypatch):
        graph, split = sbm_fixture
        spec = ClassifierSpec(kind=kind, hidden_dim=5, epochs=3)
        model = train_with_noise(spec, graph, split, SmoothingParams(0.1, 0.5))
        assert_one_vector(model.weights)
        assert model.weights["w1"].shape == (graph.num_features, 5)
        assert model.weights["w2"].shape == (5, graph.num_classes)
        fitted = capture_fit(monkeypatch)
        assert train_predict_end_to_end(spec, graph, split) is not None
        assert_one_vector(fitted.pop())


FINITE_ROWS = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=32, max_size=32)


class TestIsolatedRowsDoNotReachTheWeights:
    """A node the loss cannot reach may carry any finite features, even
    ones whose first-layer product overflows."""

    BASE = generate_sbm(48, 2, 0.25, 0.04, 32, seed=3)

    @given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 2**16),
           values=FINITE_ROWS, kind=st.sampled_from(KINDS))
    @example(seed=0, pick=0, values=[1e308] * 32, kind=KINDS[0])
    @example(seed=1, pick=3, values=[-1e308] * 32, kind=KINDS[1])
    @settings(max_examples=30, deadline=None)
    def test_poisoning(self, seed, pick, values, kind):
        graph, split = self.BASE
        sample = sample_smoothed_graph(graph, SmoothingParams(0.1, 0.7), seed).graph
        lonely = np.setdiff1d(np.flatnonzero(sample.degrees == 0), split.train)
        v = lonely[pick % lonely.size]
        features = sample.features.copy()
        features[v] = values
        changed = Graph(sample.n, sample.edges, features, sample.labels)
        spec = ClassifierSpec(kind=kind, hidden_dim=16, epochs=8, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            fitted = capture_fit(patch)
            for g in (sample, changed):
                # The prediction of v itself may overflow; its weights came first.
                with suppress(FloatingPointError):
                    train_predict_end_to_end(spec, g, split)
        if (sample.degrees[split.train] > 0).any():  # else nothing is trained
            assert len(fitted) == 2
            assert_same_bits(fitted[1], fitted[0])

    @given(values=FINITE_ROWS, kind=st.sampled_from(KINDS))
    @example(values=[1e308] * 32, kind=KINDS[0])
    @example(values=[-1e308] * 32, kind=KINDS[1])
    @settings(max_examples=15, deadline=None)
    def test_noisy_training(self, values, kind):
        graph, split = self.BASE
        edgeless = append_isolated(graph, 1, np.random.default_rng(0))
        features = edgeless.features.copy()
        features[-1] = values
        changed = Graph(edgeless.n, edgeless.edges, features, edgeless.labels)
        spec = ClassifierSpec(kind=kind, hidden_dim=16, epochs=8, seed=2)
        params = SmoothingParams(0.1, 0.7)
        assert_same_bits(train_with_noise(spec, changed, split, params).weights,
                         train_with_noise(spec, edgeless, split, params).weights)


class TestSparseProductInto:
    """The adding sparse product on a zeroed buffer equals ``op @ x`` bit for
    bit, whole or added range by range of the stored rows or columns."""

    @staticmethod
    def assert_same_bits(op, x):
        expected = op @ x
        out = np.zeros((op.shape[0], x.shape[1]))
        assert models.add_sparse_product(op, x, out) is out
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        # Three ranges, the last a single row or column: a CSR range writes
        # its own rows, a CSC range adds into every row.
        major = op.shape[0] if op.format == "csr" else op.shape[1]
        cuts = (0, major // 3, major - 1, major)
        out = np.zeros_like(out)
        for lo, hi in zip(cuts, cuts[1:]):
            part = out[lo:hi] if op.format == "csr" else out
            rows = x if op.format == "csr" else x[lo:hi]
            models.add_sparse_product(op, np.ascontiguousarray(rows), part, lo, hi)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", [1, 2, 7, 64])
    def test_operator_and_its_transpose(self, sbm_fixture, width):
        graph, _ = sbm_fixture
        op = normalized_adjacency(graph)
        assert op.format == "csr" and op.T.format == "csc"
        x = np.random.default_rng(width).standard_normal((graph.n, width))
        self.assert_same_bits(op, x)
        self.assert_same_bits(op.T, x)

    def test_isolated_rows(self, sbm_fixture):
        graph, _ = sbm_fixture
        rng = np.random.default_rng(5)
        sample = sample_smoothed_graph(graph, SmoothingParams(0.3, 0.6), 1).graph
        extended = append_isolated(sample, 4, rng)
        assert (extended.degrees == 0).sum() > 4
        op = normalized_adjacency(extended)
        x = rng.standard_normal((extended.n, 5))
        self.assert_same_bits(op, x)
        self.assert_same_bits(op.T, x)

    @pytest.mark.parametrize("layout", ["strided", "fortran", "column"])
    def test_non_contiguous_input(self, sbm_fixture, layout):
        graph, _ = sbm_fixture
        op = normalized_adjacency(graph)
        wide = np.random.default_rng(9).standard_normal((graph.n, 12))
        x = {"strided": wide[:, ::3], "fortran": np.asfortranarray(wide),
             "column": wide[:, 4:5]}[layout]
        assert not x.flags.c_contiguous
        self.assert_same_bits(op, x)
        self.assert_same_bits(op.T, x)


class TestOperatorProducts:
    """The operator's products equal the oracle's ``A[rows] @ x`` and
    ``A[rows].T @ y`` byte for byte, ``A`` its full adjacency."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 30),
           p_edge=st.sampled_from([0.0, 0.02, 0.1, 0.4]), listed=st.booleans(),
           width=st.sampled_from([1, 2, 5]))
    @example(seed=0, n=0, p_edge=0.0, listed=False, width=2)
    @example(seed=1, n=7, p_edge=0.0, listed=True, width=1)
    @example(seed=2, n=30, p_edge=0.02, listed=True, width=5)
    @settings(max_examples=60, deadline=None)
    def test_products_match_oracle(self, seed, n, p_edge, listed, width):
        rng = np.random.default_rng(seed)
        pairs = np.argwhere(np.triu(rng.random((n, n)) < p_edge, 1))
        graph = Graph(n, pairs, np.zeros((n, 1)))
        rows = np.flatnonzero(rng.random(n) < 0.3) if listed else None
        op = normalized_operator(n, graph.edges, rows)
        a = normalized_adjacency(graph)[op.rows]
        x = rng.standard_normal((n, width))
        out = np.full((op.rows.size, width), np.nan)
        assert op.product_into(x, out) is out
        assert out.tobytes() == (a @ x).tobytes()
        y = rng.standard_normal((op.rows.size, width))
        out = np.full((n, width), np.nan)
        assert op.transposed_product_into(y, out) is out
        assert out.tobytes() == (a.T @ y).tobytes()


def stacked_samples(graph, params, seeds):
    """The non-isolated nodes of the samples drawn from ``seeds``, stacked as
    the evasion vote loop stacks them, and the edges of each sample
    renumbered to its rows. Returns the nodes, the edges and, per sample,
    its graph, its nodes and its rows."""
    rows_of = np.empty(graph.n, dtype=np.int64)
    nodes, edges, samples, rows = [], [], [], 0
    for seed in seeds:
        sample = sample_smoothed_graph(graph, params, seed).graph
        touched = np.flatnonzero(sample.degrees)
        rows_of[touched] = np.arange(rows, rows + touched.size)
        nodes.append(touched)
        edges.append(rows_of[sample.edges])
        samples.append((sample, touched, slice(rows, rows + touched.size)))
        rows += touched.size
    return np.concatenate(nodes), np.concatenate(edges), samples


def random_weights(num_features, hidden, classes, seed):
    rng = np.random.default_rng(seed)
    return {"w1": rng.standard_normal((num_features, hidden)),
            "b1": rng.standard_normal(hidden),
            "w2": rng.standard_normal((hidden, classes)),
            "b2": rng.standard_normal(classes)}


class TestWorkspace:
    """One workspace serves every batch of a vote worker, the first layer
    reads the transformed features through each column's node id, and the
    forward pass refuses a workspace that does not fit it."""

    graph, _ = generate_sbm(120, 3, 0.15, 0.02, 6, seed=4)
    params = SmoothingParams(0.1, 0.5)

    def test_each_batch_predicts_what_predict_gives_on_its_samples(self):
        spec = ClassifierSpec(hidden_dim=16)
        model = TrainedModel(spec, random_weights(6, 16, 3, seed=2), 3, 6, "random")
        transformed = feature_transform(model, self.graph.features)
        # The largest batch, then smaller ones, whose rows must not pick up
        # what a larger batch left in the buffers.
        batches = [stacked_samples(self.graph, self.params, range(first, first + count))
                   for first, count in ((0, 12), (12, 1), (13, 4), (17, 9))]
        workspace = models.Workspace(len(batches[0][0]), 16, 3)
        for nodes, edges, samples in batches:
            preds = predict_rows(model, transformed, nodes, edges, workspace)
            assert preds.shape == nodes.shape
            for sample, touched, rows in samples:
                assert np.array_equal(preds[rows], predict(model, sample)[touched])

    @pytest.mark.parametrize("hidden", [1, 64])
    @pytest.mark.parametrize("classes", [2, 7])
    def test_node_id_first_layer_is_the_gathered_product(self, hidden, classes):
        weights = random_weights(6, hidden, classes, seed=hidden + classes)
        transformed = self.graph.features @ weights["w1"]
        nodes, edges, _ = stacked_samples(self.graph, self.params, range(10))
        operator = normalized_operator(len(nodes), edges)
        first = operator.through(nodes, self.graph.n)
        assert operator.indices.dtype == first.indices.dtype == np.int32
        assert first.indptr is operator.indptr and first.data is operator.data
        rows = operator.rows.size
        gathered = sp.csr_matrix((operator.data, operator.indices, operator.indptr),
                                 shape=(rows, rows)) @ transformed[nodes]
        out = np.full((rows, hidden), np.nan)
        assert first.product_into(transformed, out).tobytes() == gathered.tobytes()
        # The whole forward pass, against the one on the gathered rows.
        logits = []
        for layer, t1 in ((first, transformed), (operator, transformed[nodes])):
            work = models.Workspace(rows, hidden, classes)
            for buffer in (work.hidden, work.t2, work.logits):
                buffer.fill(np.nan)
            logits.append(models._forward(weights, layer, operator, t1, work).tobytes())
        assert logits[0] == logits[1]

    def test_index_type_widens_only_past_int32(self):
        nodes, edges, _ = stacked_samples(self.graph, self.params, range(3))
        operator = normalized_operator(len(nodes), edges)
        wide = operator.through(nodes, 2**31 + 1)
        assert wide.indices.dtype == wide.indptr.dtype == np.int64
        assert wide.indices.tolist() == nodes[operator.indices].tolist()
        assert operator.through(nodes, 2**31).indices.dtype == np.int32

    @pytest.mark.parametrize("workspace", [models.Workspace,
                                           models._TrainingWorkspace])
    def test_forward_refuses_a_pass_that_does_not_fit(self, workspace):
        weights = random_weights(6, 8, 3, seed=0)
        work = workspace(50, 8, 3)

        def forward(weights, rows):
            edges = self.graph.edges[(self.graph.edges < rows).all(axis=1)]
            operator = normalized_operator(rows, edges)
            t1 = self.graph.features[:rows] @ weights["w1"]
            return models._forward(weights, operator, operator, t1, work)

        # A pass of up to 50 rows runs in the leading rows of the buffers.
        for rows in (50, 20):
            logits = forward(weights, rows)
            assert logits.shape == (rows, 3) and logits.flags.c_contiguous
            assert np.shares_memory(logits, work.logits[:rows])
        before = [buffer.copy() for buffer in vars(work).values()]
        for unfit, rows in ((weights, 51),  # one row too many
                            (random_weights(6, 7, 3, seed=1), 20),  # hidden width
                            (random_weights(6, 8, 2, seed=2), 20)):  # classes
            with pytest.raises(ValueError, match="^the workspace does not fit"):
                forward(unfit, rows)
        # A refused pass writes nothing.
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(before, vars(work).values()))


class TestPoisoningPredictionInTrainingBuffers:
    """The poisoning prediction runs in the workspace its training used."""

    @pytest.mark.parametrize("hidden", [1, 7, 64])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("mostly_isolated", [False, True])
    def test_predictions_are_predict_on_the_fitted_weights(self, hidden, kind,
                                                           mostly_isolated,
                                                           monkeypatch):
        graph, split = generate_sbm(90, 3, 0.2, 0.02, 6, seed=hidden)
        if mostly_isolated:  # edges only among the first 15 nodes
            graph = Graph(graph.n, graph.edges[(graph.edges < 15).all(axis=1)],
                          graph.features, graph.labels)
            assert (graph.degrees == 0).mean() > 0.8
        spec = ClassifierSpec(kind=kind, hidden_dim=hidden, epochs=15, seed=hidden)
        fitted = capture_fit(monkeypatch)
        built = []
        init = models.Workspace.__init__
        monkeypatch.setattr(models.Workspace, "__init__", lambda work, *shape: (
            built.append(shape) or init(work, *shape)))
        preds = train_predict_end_to_end(spec, graph, split)
        assert built == [(graph.n, hidden, graph.num_classes)]
        model = TrainedModel(spec, fitted.pop(), graph.num_classes,
                             graph.num_features, "fitted")
        assert preds.tobytes() == predict(model, graph).tobytes()


class TestTrainingWorkspace:
    """Every epoch writes its n x hidden arrays into one workspace."""

    @pytest.fixture(scope="class")
    def large(self):
        return generate_sbm(3000, 2, 0.01, 0.001, 8, seed=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_epochs_after_the_first_allocate_no_hidden_array(self, large, kind):
        graph, split = large
        spec = ClassifierSpec(kind=kind, hidden_dim=64, epochs=5)
        one_array = graph.n * spec.hidden_dim * 8  # 1.536 MB of float64
        params = SmoothingParams(0.1, 0.8)
        rises = []

        def operators():
            for epoch in range(spec.epochs):
                # The MLP is the message-passing network without edges.
                agg = (normalized_operator(graph.n, sample_smoothed_graph(
                    graph, params, epoch).graph.edges)
                    if kind == "message_passing_2layer"
                    else normalized_operator(graph.n, np.empty((0, 2), dtype=np.int64),
                                             split.train))
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                yield agg
                rises.append(tracemalloc.get_traced_memory()[1] - start)

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            models._fit(spec, graph, np.asarray(split.train), operators(),
                        models._TrainingWorkspace(graph.n, spec.hidden_dim,
                                                  graph.num_classes))
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(rises) == spec.epochs
        assert max(rises[1:]) < one_array, rises


class TestNonFiniteTraining:
    @pytest.mark.parametrize("setting", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_spec_rejects_non_finite_settings(self, setting, value):
        with pytest.raises(ValueError, match="finite"):
            ClassifierSpec(**{setting: value})

    @pytest.mark.parametrize("kind", KINDS)
    def test_diverged_weights_raise(self, sbm_fixture, kind):
        graph, split = sbm_fixture
        spec = ClassifierSpec(kind=kind, hidden_dim=4, epochs=7, learning_rate=1e300)
        with pytest.raises(FloatingPointError,
                           match=f"{kind} training .* after 7 epochs"):
            train_with_noise(spec, graph, split, SmoothingParams(0.1, 0.5))
        with pytest.raises(FloatingPointError):
            train_predict_end_to_end(spec, graph, split)


class TestNonFiniteLogits:
    """A prediction whose logits are not finite raises, naming its node,
    instead of voting for class 0."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_overflowing_isolated_node_in_a_poisoning_sample(self, kind):
        graph, split = generate_sbm(48, 2, 0.25, 0.04, 64, seed=3)
        v = np.setdiff1d(np.arange(graph.n), split.train)[5]
        features = graph.features.copy()
        features[v] = 1e308
        sample = Graph(graph.n, graph.edges[(graph.edges != v).all(axis=1)],
                       features, graph.labels)
        spec = ClassifierSpec(kind=kind, hidden_dim=8, epochs=20)
        with pytest.raises(FloatingPointError,
                           match=f"^logits of node {v} are not finite$"):
            train_predict_end_to_end(spec, sample, split)

    @pytest.fixture
    def overflowing_model(self, identity_model):
        # Each hidden unit feeds each class with weight 1e308: a row whose
        # hidden activations add up to more than about 1.8 overflows.
        weights = dict(identity_model.weights, w2=np.full((2, 2), 1e308))
        return TrainedModel(identity_model.spec, weights, 2, 2, "fixture")

    def test_predict_rows_names_the_node_of_the_row(self, overflowing_model):
        features = np.array([[0.5, 0.5]] * 6)
        features[4] = [2.0, 2.0]
        transformed = feature_transform(overflowing_model, features)
        nodes = np.array([1, 4, 4, 0])
        edges = np.array([[2, 3]])
        with pytest.raises(FloatingPointError, match="^logits of node 4 are not finite$"):
            predict_rows(overflowing_model, transformed, nodes, edges)
        assert predict_rows(overflowing_model, transformed, nodes[[0, 3]],
                            np.array([[0, 1]])).tolist() == [0, 0]

    def test_a_reused_workspace_still_names_the_node(self, overflowing_model):
        features = np.array([[0.5, 0.5]] * 6)
        features[4] = [2.0, 2.0]
        transformed = feature_transform(overflowing_model, features)
        workspace = models.Workspace(4, 2, 2)
        finite = (np.array([1, 0, 3, 5]), np.array([[0, 1], [2, 3]]))
        assert predict_rows(overflowing_model, transformed, *finite,
                            workspace).tolist() == [0, 0, 0, 0]
        for _ in range(2):
            with pytest.raises(FloatingPointError,
                               match="^logits of node 4 are not finite$"):
                predict_rows(overflowing_model, transformed, np.array([1, 4, 4, 0]),
                             np.array([[2, 3]]), workspace)
            assert predict_rows(overflowing_model, transformed, *finite,
                                workspace).tolist() == [0, 0, 0, 0]

    def test_predict(self, overflowing_model):
        features = np.array([[0.5, 0.5], [0.9, 0.9], [2.0, 2.0]])
        graph = Graph(3, [(0, 1)], features)
        with pytest.raises(FloatingPointError, match="^logits of node 2 are not finite$"):
            predict(overflowing_model, graph)
