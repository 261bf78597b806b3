import json
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (enumerate_graph_votes, read_curve_csv,
                     reference_certified_accuracy, reference_curve)
from smoothcert import (ClassifierSpec, DataSplit, Graph, InteractionMatrix,
                        PerturbationBudget, SmoothingParams, TrainedModel,
                        VoteTable, average_certified_radius,
                        certified_accuracy_curve,
                        certified_overlap_radii, certified_radii,
                        collect_item_votes, collect_votes_evasion,
                        collect_votes_poisoning, derive_sample_seed,
                        generate_sbm, predict, sample_smoothed_graph,
                        write_report)
from smoothcert import pipeline
from smoothcert.models import predict_rows
from smoothcert.pipeline import CertCurve, CurvePoint
from smoothcert.recsys import ItemVoteTable


@pytest.fixture
def split4():
    return DataSplit(train=[0, 2], validation=[1], test=[3])


NOISE = SmoothingParams(0.1, 0.8)


def perfect_table(n, num_classes, labels, num_samples, **fields):
    counts = np.zeros((n, num_classes), dtype=np.int64)
    counts[np.arange(n), labels] = num_samples
    return table_of(counts, num_samples, **fields)


def table_of(counts, num_samples, abstains=None, params=NOISE, degrees=None,
             mode="include"):
    """A vote table of the given counts; rows abstain in the samples they do
    not vote in, and every node has degree 1 unless ``degrees`` says
    otherwise."""
    counts = np.asarray(counts, dtype=np.int64)
    if abstains is None:
        abstains = num_samples - counts.sum(axis=1)
    if degrees is None:
        degrees = np.ones(counts.shape[0], dtype=np.int64)
    return VoteTable(counts=counts, abstains=abstains, num_samples=num_samples,
                     params=params, degrees=degrees,
                     provenance={"kind": "synthetic"}, mode=mode)


class TestCollectVotesEvasion:
    def test_single_clean_sample_is_one_hot(self, two_clique_graph, identity_model):
        table = collect_votes_evasion(identity_model, two_clique_graph, 1,
                                      SmoothingParams(0, 0), master_seed=5)
        clean = predict(identity_model, two_clique_graph)
        assert np.array_equal(table.majority_classes, clean)
        assert table.counts.sum() == two_clique_graph.n
        assert not table.abstains.any()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_refused(self, two_clique_graph,
                                             identity_model, value):
        # NaN logits would put every vote of the node on class 0.
        features = two_clique_graph.features.copy()
        features[2, 1] = value
        graph = Graph(4, two_clique_graph.edges, features,
                      two_clique_graph.labels)
        with pytest.raises(ValueError, match="node 2 .* not finite"):
            collect_votes_evasion(identity_model, graph, 20,
                                  SmoothingParams(0.1, 0.2), master_seed=5)

    def test_disjoint_ranges_merge_to_full_run(self, two_clique_graph, identity_model):
        params = SmoothingParams(0.3, 0.2)
        full = collect_votes_evasion(identity_model, two_clique_graph, 600,
                                     params, master_seed=5)
        lo = collect_votes_evasion(identity_model, two_clique_graph, 250,
                                   params, master_seed=5, first_index=0)
        hi = collect_votes_evasion(identity_model, two_clique_graph, 350,
                                   params, master_seed=5, first_index=250)
        merged = lo.merged(hi)
        assert np.array_equal(merged.counts, full.counts)
        assert merged.num_samples == full.num_samples

    def test_merge_rejects_different_runs(self, two_clique_graph, identity_model):
        a = collect_votes_evasion(identity_model, two_clique_graph, 10,
                                  SmoothingParams(0.3, 0.2), master_seed=5)
        b = collect_votes_evasion(identity_model, two_clique_graph, 10,
                                  SmoothingParams(0.4, 0.2), master_seed=5)
        with pytest.raises(ValueError, match="different runs"):
            a.merged(b)

    def collect(self, graph, model, num_samples, first_index):
        return collect_votes_evasion(model, graph, num_samples,
                                     SmoothingParams(0.3, 0.2), master_seed=5,
                                     first_index=first_index)

    def test_merge_accepts_adjacent_ranges_in_either_order(self, two_clique_graph,
                                                           identity_model):
        lo = self.collect(two_clique_graph, identity_model, 20, 0)
        hi = self.collect(two_clique_graph, identity_model, 30, 20)
        for merged in (lo.merged(hi), hi.merged(lo)):
            assert merged.num_samples == 50
            assert merged.first_index == 0

    def test_merge_rejects_self(self, two_clique_graph, identity_model):
        a = self.collect(two_clique_graph, identity_model, 50, 0)
        with pytest.raises(ValueError, match="itself"):
            a.merged(a)

    def test_merge_rejects_overlap(self, two_clique_graph, identity_model):
        a = self.collect(two_clique_graph, identity_model, 50, 0)
        for b in (self.collect(two_clique_graph, identity_model, 50, 0),
                  self.collect(two_clique_graph, identity_model, 50, 49),
                  self.collect(two_clique_graph, identity_model, 10, 20)):
            with pytest.raises(ValueError, match="overlap"):
                a.merged(b)
            with pytest.raises(ValueError, match="overlap"):
                b.merged(a)

    def test_merge_rejects_gap(self, two_clique_graph, identity_model):
        a = self.collect(two_clique_graph, identity_model, 50, 0)
        b = self.collect(two_clique_graph, identity_model, 50, 100)
        with pytest.raises(ValueError, match="gap"):
            a.merged(b)
        with pytest.raises(ValueError, match="gap"):
            b.merged(a)

    def test_thread_count_does_not_change_results(self, two_clique_graph,
                                                  identity_model):
        params = SmoothingParams(0.4, 0.3)
        serial = collect_votes_evasion(identity_model, two_clique_graph, 400,
                                       params, master_seed=8, threads=1)
        parallel = collect_votes_evasion(identity_model, two_clique_graph, 400,
                                         params, master_seed=8, threads=4)
        assert np.array_equal(serial.counts, parallel.counts)

    def test_majority_matches_clean_and_enumeration(self, two_clique_graph,
                                                    identity_model):
        params = SmoothingParams(p_e=0.3, p_n=0.0)
        table = collect_votes_evasion(identity_model, two_clique_graph, 1000,
                                      params, master_seed=3)
        clean = predict(identity_model, two_clique_graph)
        assert np.array_equal(table.majority_classes, clean)

        exact = enumerate_graph_votes(two_clique_graph, params, identity_model)
        freq = table.counts / table.num_samples
        sigma = np.sqrt(exact * (1 - exact) / table.num_samples)
        assert np.all(np.abs(freq - exact) <= 4 * sigma + 1e-12)


def random_model(kind, num_features, num_classes, seed, hidden=16):
    rng = np.random.default_rng(seed)
    weights = {"w1": rng.standard_normal((num_features, hidden)),
               "b1": rng.standard_normal(hidden),
               "w2": rng.standard_normal((hidden, num_classes)),
               "b2": rng.standard_normal(num_classes)}
    return TrainedModel(spec=ClassifierSpec(kind=kind, hidden_dim=hidden),
                        weights=weights, num_classes=num_classes,
                        num_features=num_features, graph_fingerprint="random")


def replay_votes(model, graph, num_samples, params, master_seed, first_index):
    """Per-sample reference: sample_smoothed_graph, then predict, then count."""
    counts = np.zeros((graph.n, model.num_classes), dtype=np.int64)
    rows = np.arange(graph.n)
    for i in range(first_index, first_index + num_samples):
        sample = sample_smoothed_graph(graph, params,
                                       derive_sample_seed(master_seed, i))
        counts[rows, predict(model, sample.graph)] += 1
    return counts


class TestVoteProvenance:
    """Tables voted on another graph, split or model never merge."""

    graph, split = generate_sbm(n=60, classes=2, p_in=0.3, p_out=0.05, d=4,
                                seed=2)
    halved = Graph(graph.n, graph.edges[::2], graph.features, graph.labels)
    params = SmoothingParams(0.2, 0.3)

    def test_evasion_binds_the_voted_graph_and_the_model(self):
        model = random_model("message_passing_2layer", 4, 2, seed=1)
        retuned = replace(model, spec=replace(model.spec, learning_rate=0.5))
        first = collect_votes_evasion(model, self.graph, 10, self.params,
                                      master_seed=5)
        assert first.merged(collect_votes_evasion(
            model, self.graph, 10, self.params, master_seed=5,
            first_index=10)).num_samples == 20
        for other_model, graph in ((model, self.halved), (retuned, self.graph)):
            second = collect_votes_evasion(other_model, graph, 10, self.params,
                                           master_seed=5, first_index=10)
            with pytest.raises(ValueError, match="different runs"):
                first.merged(second)

    def test_evasion_binds_the_model_weights(self):
        # One spec and training graph, other weights: as two trainings at
        # other BLAS thread counts can give. Equal bits still merge.
        model = random_model("message_passing_2layer", 4, 2, seed=1)
        copied = replace(model, weights={k: v.copy() for k, v in model.weights.items()})
        nudged = replace(model, weights={**model.weights,
                                         "b2": np.nextafter(model.weights["b2"], 9.0)})
        first = collect_votes_evasion(model, self.graph, 10, self.params,
                                      master_seed=5)
        assert first.merged(collect_votes_evasion(
            copied, self.graph, 10, self.params, master_seed=5,
            first_index=10)).num_samples == 20
        second = collect_votes_evasion(nudged, self.graph, 10, self.params,
                                       master_seed=5, first_index=10)
        assert second.provenance["model_spec"] == first.provenance["model_spec"]
        with pytest.raises(ValueError, match="different runs"):
            first.merged(second)

    def test_poisoning_binds_the_graph_split_and_spec(self):
        spec = ClassifierSpec(hidden_dim=4, epochs=3, seed=6)
        reordered = DataSplit(train=self.split.validation,
                              validation=self.split.train, test=self.split.test)

        def collect(graph=self.graph, split=self.split, spec=spec, first=0):
            return collect_votes_poisoning(spec, graph, split, 10, self.params,
                                           "include", master_seed=4,
                                           first_index=first)

        first = collect()
        assert first.merged(collect(first=10)).num_samples == 20
        for second in (collect(graph=self.halved, first=10),
                       collect(split=reordered, first=10),
                       collect(spec=replace(spec, epochs=4), first=10)):
            with pytest.raises(ValueError, match="different runs"):
                first.merged(second)

    def collectors(self):
        model = random_model("message_passing_2layer", 4, 2, seed=1)
        spec = ClassifierSpec(hidden_dim=4, epochs=3, seed=6)
        return {
            "evasion": lambda n, seed, first: collect_votes_evasion(
                model, self.graph, n, self.params, master_seed=seed,
                first_index=first),
            "poisoning": lambda n, seed, first: collect_votes_poisoning(
                spec, self.graph, self.split, n, self.params, "include",
                master_seed=seed, first_index=first),
        }

    @pytest.mark.parametrize("kind", ["evasion", "poisoning"])
    def test_another_master_seed_never_merges(self, kind):
        # Adjacent ranges, everything else equal: only the seed tells them apart.
        collect = self.collectors()[kind]
        first, second = collect(10, 5, 0), collect(10, 6, 10)
        assert first.merged(collect(10, 5, 10)).num_samples == 20
        with pytest.raises(ValueError, match="different runs"):
            first.merged(second)
        with pytest.raises(ValueError, match="different runs"):
            second.merged(first)

    def test_the_sample_range_is_a_field_not_provenance(self):
        ratings = InteractionMatrix(4, 5, [(0, 1), (0, 2), (1, 2), (2, 3),
                                           (3, 1), (3, 4)])
        tables = [collect(4, 7, 3) for collect in self.collectors().values()]
        tables.append(collect_item_votes(ratings, 4, self.params, 2,
                                         master_seed=7, first_index=3))
        for table in tables:
            assert (table.first_index, table.num_samples) == (3, 4)
            assert not {"first_index", "num_samples"} & set(table.provenance)


class TestAccumulateParallel:
    """Worker counts, with a serial stand-in for the thread pool."""

    def run(self, serial_pool, cpus, threads, num_samples=1000, first=5):
        chunks = []
        counts = np.zeros(1, dtype=np.int64)

        def worker(lo, hi):
            chunks.append((int(lo), int(hi)))
            counts[0] += hi - lo

        pools, _ = serial_pool(cpus)
        assert pipeline.accumulate_parallel(num_samples, first, threads,
                                            worker) is None
        assert counts.tolist() == [num_samples]
        assert chunks[0][0] == first and chunks[-1][1] == first + num_samples
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        return pools, len(chunks)

    def test_workers_capped_at_usable_cpus(self, serial_pool):
        # The calling thread is one of the workers: the pool has one fewer.
        assert self.run(serial_pool, cpus=3, threads=5000) == ([2], 12)
        assert self.run(serial_pool, cpus=3, threads=2) == ([1], 8)

    def test_one_cpu_runs_serially(self, serial_pool):
        assert self.run(serial_pool, cpus=1, threads=4) == ([], 1)

    def test_chunk_bounds_are_exact_past_float_precision(self, serial_pool):
        # Float bounds would round 2**53 + 1 down and run [2**53, 2**53 + 8).
        assert self.run(serial_pool, cpus=2, threads=2, num_samples=7,
                        first=2**53 + 1) == ([1], 7)

    @staticmethod
    def two_threads(monkeypatch, fail_on=None):
        """Eight chunks on two real workers, each thread's first chunk
        waiting until the other thread has run one, so that both threads
        run chunks. The first chunk of ``fail_on`` ("caller" or "pool")
        raises once it has waited. Returns the chunks run per thread."""
        monkeypatch.setattr(pipeline.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        caller = threading.get_ident()
        lock = threading.Lock()
        ran = {"caller": [], "pool": []}
        started = {"caller": threading.Event(), "pool": threading.Event()}

        def worker(lo, hi):
            me = "caller" if threading.get_ident() == caller else "pool"
            other = "pool" if me == "caller" else "caller"
            with lock:
                ran[me].append(lo)
                first = len(ran[me]) == 1
            started[me].set()
            if first:
                assert started[other].wait(timeout=30)
            if me == fail_on:
                raise ValueError(f"chunk {lo} failed on the {me} thread")

        pipeline.accumulate_parallel(8, 0, 2, worker)
        return ran

    def test_the_calling_thread_runs_chunks(self, monkeypatch):
        ran = self.two_threads(monkeypatch)
        assert ran["caller"] and ran["pool"]
        assert sorted(ran["caller"] + ran["pool"]) == list(range(8))

    @pytest.mark.parametrize("thread", ["caller", "pool"])
    def test_a_chunk_error_reaches_the_caller(self, monkeypatch, thread):
        with pytest.raises(ValueError, match=f"on the {thread} thread"):
            self.two_threads(monkeypatch, fail_on=thread)

    def test_chunk_order_does_not_change_any_table(self, serial_pool):
        # Every chunk adds into the run's one table: run last chunk first.
        graph, split = generate_sbm(n=60, classes=2, p_in=0.3, p_out=0.05, d=4,
                                    seed=2)
        params = SmoothingParams(0.2, 0.3)
        model = random_model("message_passing_2layer", 4, 2, seed=1)
        spec = ClassifierSpec(hidden_dim=4, epochs=3, seed=6)
        rng = np.random.default_rng(7)
        ratings = InteractionMatrix(30, 40, np.argwhere(rng.random((30, 40)) < 0.2))
        collectors = (
            lambda: collect_votes_evasion(model, graph, 40, params, master_seed=3,
                                          threads=2, first_index=5),
            lambda: collect_votes_poisoning(spec, graph, split, 12, params,
                                            "exclude", master_seed=3, threads=2),
            lambda: collect_item_votes(ratings, 12, params, 4, master_seed=3,
                                       threads=2))
        tables = {}
        for reverse in (False, True):
            pools, ran = serial_pool(2, reverse)
            tables[reverse] = [collect() for collect in collectors]
            assert pools == [1, 1, 1]
            # The evasion run's eight chunks, in the order asked for.
            firsts = list(range(5, 45, 5))
            assert ran[:8] == (firsts[::-1] if reverse else firsts)
        for forward, backward in zip(tables[False], tables[True]):
            assert forward.counts.tobytes() == backward.counts.tobytes()
            assert forward.abstains.tobytes() == backward.abstains.tobytes()
        assert tables[False][1].abstains.any() and tables[False][2].counts.any()

    def test_concurrent_adds_lose_no_vote(self, monkeypatch):
        # Eight threads on fewer cores, switching as often as they can: an
        # add that read the table before another thread's add wrote it would
        # drop that thread's votes.
        graph, _ = generate_sbm(n=60, classes=2, p_in=0.3, p_out=0.05, d=4, seed=2)
        params = SmoothingParams(0.2, 0.3)
        model = random_model("message_passing_2layer", 4, 2, seed=1)
        rng = np.random.default_rng(7)
        ratings = InteractionMatrix(30, 40, np.argwhere(rng.random((30, 40)) < 0.2))

        def collect(threads):
            return (collect_votes_evasion(model, graph, 200, params, master_seed=3,
                                          threads=threads),
                    collect_item_votes(ratings, 64, params, 4, master_seed=3,
                                       threads=threads))

        serial = collect(1)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = collect(8)
        finally:
            sys.setswitchinterval(interval)
        for one, many in zip(serial, parallel):
            assert one.counts.tobytes() == many.counts.tobytes()
            assert one.abstains.tobytes() == many.abstains.tobytes()


class TestBatchedEvasionVotes:
    """The batched vote loop against a per-sample replay, count for count."""

    graph, _ = generate_sbm(n=300, classes=3, p_in=0.08, p_out=0.01, d=6, seed=2)

    @pytest.mark.parametrize("batch_rows", [None, 37])
    @pytest.mark.parametrize("kind", ["message_passing_2layer", "feature_mlp"])
    @pytest.mark.parametrize("p_e,p_n", [(0.0, 0.0), (0.0, 0.9), (0.5, 0.0),
                                         (0.1, 0.8)])
    def test_matches_replay(self, monkeypatch, kind, p_e, p_n, batch_rows):
        if batch_rows is not None:
            monkeypatch.setattr(pipeline, "_BATCH_ROWS", batch_rows)
        model = random_model(kind, self.graph.num_features, 3, seed=11)
        params = SmoothingParams(p_e, p_n)
        # A prime sample count, so batches and thread chunks end unevenly.
        expected = replay_votes(model, self.graph, 211, params, 9, first_index=4)
        assert len(np.unique(expected.argmax(axis=1))) > 1
        for threads in (1, 3):
            table = collect_votes_evasion(model, self.graph, 211, params,
                                          master_seed=9, threads=threads,
                                          first_index=4)
            assert np.array_equal(table.counts, expected)

    def test_draws_every_sample_through_the_public_sampler(self, monkeypatch):
        # The benchmark's traced run times and replays this call per sample.
        seeds = []

        def counting(graph, params, seed):
            seeds.append(seed)
            return sample_smoothed_graph(graph, params, seed)

        monkeypatch.setattr(pipeline, "sample_smoothed_graph", counting)
        model = random_model("message_passing_2layer", self.graph.num_features,
                             3, seed=1)
        collect_votes_evasion(model, self.graph, 53, SmoothingParams(0.1, 0.8),
                              master_seed=3, threads=3, first_index=2)
        assert len(seeds) == 53
        assert sorted(seeds) == sorted(derive_sample_seed(3, i)
                                       for i in range(2, 55))

    def test_a_model_without_aggregation_draws_no_sample(self, monkeypatch):
        # The MLP predicts every node as in the edgeless graph, so the votes
        # are the per-sample replay's without a single sampler call.
        model = random_model("feature_mlp", self.graph.num_features, 3, seed=11)
        params = SmoothingParams(0.1, 0.8)
        expected = replay_votes(model, self.graph, 53, params, 3, first_index=2)
        calls = []
        monkeypatch.setattr(pipeline, "sample_smoothed_graph",
                            lambda *args: calls.append(args))
        for threads in (1, 3):
            table = collect_votes_evasion(model, self.graph, 53, params,
                                          master_seed=3, threads=threads,
                                          first_index=2)
            assert np.array_equal(table.counts, expected)
            assert not table.abstains.any()
        assert calls == []


class TestEvasionWorkspace:
    """The evasion worker predicts every batch into one workspace."""

    graph = TestBatchedEvasionVotes.graph

    @pytest.mark.parametrize("p_e,p_n", [(0.0, 0.0), (0.1, 0.8)])
    def test_batches_allocate_no_hidden_array(self, monkeypatch, p_e, p_n):
        # Wide enough that one batch rows x hidden block of float64 (2.4 MB
        # without noise) dwarfs the batch operator's index temporaries.
        hidden = 256
        model = random_model("message_passing_2layer", self.graph.num_features, 3,
                             seed=5, hidden=hidden)
        calls = []  # (arguments, rise of the traced peak) per batch

        def measured(*args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            preds = predict_rows(*args)
            calls.append((args, tracemalloc.get_traced_memory()[1] - start))
            return preds

        monkeypatch.setattr(pipeline, "predict_rows", measured)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            collect_votes_evasion(model, self.graph, 300, SmoothingParams(p_e, p_n),
                                  master_seed=7)
            # The same batch without the worker's workspace, as a control.
            measured(*calls[0][0][:4])
        finally:
            if not tracing:
                tracemalloc.stop()
        *batches, (control, fresh) = calls
        block = len(control[2]) * hidden * 8
        assert len(batches) > 3 and fresh >= block
        assert max(rise for _, rise in batches) < block / 2, [r for _, r in calls]


class TestCollectVotesPoisoning:
    spec = ClassifierSpec(hidden_dim=4, epochs=5, seed=6)

    def test_single_clean_sample(self, two_clique_graph, split4):
        table = collect_votes_poisoning(self.spec, two_clique_graph, split4, 1,
                                        SmoothingParams(0, 0), "include",
                                        master_seed=4)
        assert table.counts.sum() == two_clique_graph.n
        assert table.counts.max() == 1

    @pytest.mark.parametrize("mode", ["include", "exclude"])
    def test_full_deletion_abstains_everywhere(self, two_clique_graph, split4,
                                               mode):
        # With every node deleted, no training node is left to train on.
        table = collect_votes_poisoning(self.spec, two_clique_graph, split4, 7,
                                        SmoothingParams(0, 1), mode,
                                        master_seed=4)
        assert np.all(table.abstains == 7)
        assert table.counts.sum() == 0

    @staticmethod
    def pruned(two_clique_graph):
        """The two-clique graph without its (0, 1) edge: nodes 0 and 1 are
        isolated, and training node 2 keeps its edge."""
        return Graph(4, [(2, 3)], two_clique_graph.features,
                     two_clique_graph.labels)

    def test_exclude_mode_abstains_on_isolated_nodes_alone(self, two_clique_graph,
                                                           split4):
        table = collect_votes_poisoning(self.spec, self.pruned(two_clique_graph),
                                        split4, 5, SmoothingParams(0, 0), "exclude",
                                        master_seed=4)
        assert table.abstains.tolist() == [5, 5, 0, 0]
        assert table.counts.sum(axis=1).tolist() == [0, 0, 5, 5]

    def test_include_mode_never_abstains(self, two_clique_graph, split4):
        table = collect_votes_poisoning(self.spec, self.pruned(two_clique_graph),
                                        split4, 5, SmoothingParams(0, 0), "include",
                                        master_seed=4)
        assert not table.abstains.any()
        assert table.counts.sum(axis=1).tolist() == [5, 5, 5, 5]

    def test_bad_mode_is_refused_before_any_sample(self, two_clique_graph,
                                                   split4, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "sample_smoothed_graph",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="mode"):
            collect_votes_poisoning(self.spec, two_clique_graph, split4, 3,
                                    SmoothingParams(0, 1), "bogus",
                                    master_seed=4)
        assert calls == []

    def test_include_and_exclude_differ_only_on_isolated_nodes(
            self, sbm_fixture):
        graph, split = sbm_fixture
        params = SmoothingParams(0.3, 0.05)
        include = collect_votes_poisoning(self.spec, graph, split,
                                          40, params, "include", master_seed=4)
        exclude = collect_votes_poisoning(self.spec, graph, split,
                                          40, params, "exclude", master_seed=4)
        never_isolated = exclude.abstains == 0
        assert never_isolated.any()
        assert np.array_equal(include.counts[never_isolated],
                              exclude.counts[never_isolated])
        touched = ~never_isolated
        assert np.all(include.counts[touched].sum(axis=1) == 40)
        assert np.all(exclude.counts[touched].sum(axis=1)
                      == 40 - exclude.abstains[touched])


class TestVoteTable:
    def test_counts_must_sum_to_samples(self):
        with pytest.raises(ValueError, match="sum"):
            table_of(np.ones((2, 2)), 5, abstains=np.zeros(2, dtype=np.int64))

    def test_stats_extraction(self):
        counts = np.array([[3, 5, 2], [4, 4, 0]], dtype=np.int64)
        table = table_of(counts, 10)
        assert table.majority_classes.tolist() == [1, 0]
        abstained, majority, radius = certified_radii(table, 1, 0.01, [0, 1])
        assert majority.tolist() == [1, 0]
        assert abstained.all() and radius.tolist() == [-1, -1]

    def test_rejects_negative_and_excess_votes(self):
        with pytest.raises(ValueError, match="non-negative"):
            table_of([[-5, 15]], 10, abstains=[0])
        with pytest.raises(ValueError, match="non-negative"):
            table_of([[0, 0]], 10, abstains=[-1])
        with pytest.raises(ValueError, match="more votes"):
            table_of([[0, 0]], 10, abstains=[11])

    def test_merge_rejects_another_mode_noise_or_degrees(self):
        a = table_of([[6, 4]], 10)
        for b in (replace(a, mode="exclude"), replace(a, degrees=[2]),
                  replace(a, params=SmoothingParams(0.1, 0.9))):
            with pytest.raises(ValueError, match="different runs"):
                a.merged(b)

    def test_rejects_unknown_mode_and_missing_degrees(self):
        with pytest.raises(ValueError, match="mode"):
            table_of([[10, 0]], 10, mode="both")
        with pytest.raises(ValueError, match="degrees"):
            table_of([[10, 0], [0, 10]], 10, degrees=[3])

    def test_certificate_needs_two_classes_and_alpha_in_range(self):
        with pytest.raises(ValueError, match="two classes"):
            certified_radii(table_of([[10]], 10), 1, 0.01, [0])
        table = table_of([[10, 0]], 10)
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="alpha"):
                certified_radii(table, 1, alpha, [0])

    def test_certificate_follows_the_table(self):
        # The same votes certify differently under the class count, noise and
        # mode they were drawn with; each is read off the table.
        three = table_of([[690, 300, 10]], 1000)
        two = table_of([[690, 300]], 1000)
        assert certified_radii(three, 5, 0.01, [0])[2].tolist() == [1]
        assert certified_radii(two, 5, 0.01, [0])[2].tolist() == [2]
        noisier = replace(three, params=SmoothingParams(0.1, 0.95))
        assert certified_radii(noisier, 5, 0.01, [0])[2].tolist() == [25]
        isolated = replace(three, mode="exclude", degrees=[0])
        assert certified_radii(isolated, 5, 0.01, [0])[2].tolist() == [-1]


class TestNarrowCounts:
    """Counts are stored in the narrowest signed integer type that holds the
    sample count, and every certificate reads the values an int64 table
    holds."""

    @pytest.mark.parametrize("num_samples, dtype", [
        (1, np.int8), (127, np.int8), (128, np.int16), (32_767, np.int16),
        (32_768, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)])
    def test_the_documented_dtype(self, num_samples, dtype):
        table = table_of([[num_samples, 0], [0, num_samples]], num_samples)
        assert table.counts.dtype == dtype
        assert table.counts.tolist() == [[num_samples, 0], [0, num_samples]]

    @staticmethod
    def tables(num_samples):
        """An evasion table and a recommender table with counts at 0 and at
        ``num_samples``."""
        n = num_samples
        votes = table_of([[n, 0], [0, n], [n - n // 20, n // 20],
                          [n // 2 + 1, n // 2 - 1]], n, degrees=[3, 1, 2, 5])
        items = ItemVoteTable(
            counts=[[n, n, 0, 0, 0], [n, n // 2, n // 50, 0, n // 3],
                    [0, 0, 0, 0, 0]],
            abstains=[0, 0, n], num_samples=n, params=NOISE,
            degrees=[4, 2, 1], provenance={}, k_prime=3)
        return votes, items

    @pytest.mark.parametrize("num_samples", [127, 128, 32_767, 32_768])
    def test_certificates_match_an_int64_table(self, monkeypatch, num_samples):
        def certificates(votes, items):
            labels = [0, 1, 0, 1]
            return (certified_radii(votes, 2, 0.01, [0, 1, 2, 3]),
                    certified_radii(replace(votes, mode="exclude"), 2, 0.01,
                                    [0, 1, 2, 3]),
                    certified_accuracy_curve(votes, labels, 2, 0.01),
                    certified_overlap_radii(items, {0: [0, 1], 1: [0, 2, 4],
                                                    2: [3]}, 2, 2, 0.01))
        narrow = self.tables(num_samples)
        assert {t.counts.dtype for t in narrow} == {
            np.dtype(pipeline._count_dtype(num_samples))}
        expected = certificates(*narrow)
        monkeypatch.setattr(pipeline, "_count_dtype",
                            lambda _: np.dtype(np.int64))
        wide = self.tables(num_samples)
        assert {t.counts.dtype for t in wide} == {np.dtype(np.int64)}
        got = certificates(*wide)
        for a, b in zip(expected[:2], got[:2]):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert expected[2] == got[2]
        assert np.array_equal(expected[3], got[3])

    @pytest.mark.parametrize("counts, abstains, message", [
        ([[128, 0]], [0], "more votes"),
        ([[-1, 128]], [0], "non-negative"),
        # 261 would wrap to 5 in int8; it is refused before narrowing.
        ([[261, 0]], [0], "more votes"),
        ([[0, 0]], [128], "more votes")])
    def test_out_of_range_counts_are_refused_not_wrapped(self, counts, abstains,
                                                         message):
        with pytest.raises(ValueError, match=message):
            VoteTable(counts=np.array(counts, dtype=np.int64), abstains=abstains,
                      num_samples=127, params=NOISE, degrees=[1],
                      provenance={})

    def test_merged_counts_are_exact_in_the_wider_type(self):
        first = table_of([[100, 0], [60, 40], [0, 100]], 100)
        second = replace(first, counts=[[100, 0], [90, 10], [27, 73]],
                         first_index=100)
        assert first.counts.dtype == second.counts.dtype == np.int8
        merged = first.merged(second)
        assert merged.num_samples == 200 and merged.counts.dtype == np.int16
        assert merged.counts.tolist() == [[200, 0], [150, 50], [27, 173]]


class TestCertifiedAccuracyCurve:
    def test_perfect_votes_certify_at_zero(self):
        labels = np.array([0, 1, 0, 1])
        table = perfect_table(4, 2, labels, num_samples=10_000)
        curve = certified_accuracy_curve(table, labels, tau=2, alpha=0.01)
        assert curve.points[0].rho == 0
        assert curve.points[0].certified_accuracy == 1.0
        assert curve.clean_accuracy == 1.0
        assert curve.points[-1].certified_accuracy == 0.0

    def test_all_abstain_table_is_flat_zero(self):
        labels = np.array([0, 1])
        table = table_of(np.zeros((2, 2)), 100)
        curve = certified_accuracy_curve(table, labels, tau=2, alpha=0.01)
        assert all(p.certified_accuracy == 0.0 for p in curve.points)
        assert curve.points[0].abstain_rate == 1.0

    def test_matches_per_node_certification(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=12)
        counts = np.zeros((12, 2), dtype=np.int64)
        wins = rng.integers(500, 1000, size=12)
        counts[np.arange(12), labels] = wins
        counts[np.arange(12), 1 - labels] = 1000 - wins
        table = table_of(counts, 1000)
        curve = certified_accuracy_curve(table, labels, tau=3, alpha=0.01)
        for point in curve.points:
            budget = PerturbationBudget(rho=point.rho, tau=3)
            direct = reference_certified_accuracy(table, labels, budget, 0.01)
            assert point.certified_accuracy == pytest.approx(direct, abs=1e-15)

    def test_exclude_mode_requires_degrees_and_skips_isolated(self):
        labels = np.array([0, 1, 0])
        with pytest.raises(ValueError, match="degrees"):
            perfect_table(3, 2, labels, 1000, mode="exclude", degrees=[])
        table = perfect_table(3, 2, labels, 1000, mode="exclude",
                              degrees=[3, 0, 2])
        curve = certified_accuracy_curve(table, labels, tau=2, alpha=0.01)
        # the degree-0 node can never be certified, capping accuracy at 2/3
        assert curve.points[0].certified_accuracy <= 2 / 3 + 1e-12

    def test_certified_accuracy_non_increasing_in_tau(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 2, size=20)
        counts = np.zeros((20, 2), dtype=np.int64)
        wins = rng.integers(700, 1001, size=20)
        counts[np.arange(20), labels] = wins
        counts[np.arange(20), 1 - labels] = 1000 - wins
        table = table_of(counts, 1000)
        curves = {tau: certified_accuracy_curve(table, labels, tau, 0.01)
                  for tau in (1, 2, 4)}
        for lo, hi in [(1, 2), (2, 4)]:
            shared = min(len(curves[lo].points), len(curves[hi].points))
            for j in range(shared):
                assert (curves[hi].points[j].certified_accuracy
                        <= curves[lo].points[j].certified_accuracy + 1e-15)

    def test_curve_is_monotone_and_terminates(self, sbm_fixture):
        graph, split = sbm_fixture
        labels = graph.labels
        rng = np.random.default_rng(5)
        counts = np.zeros((graph.n, 2), dtype=np.int64)
        wins = rng.integers(800, 1001, size=graph.n)
        counts[np.arange(graph.n), labels] = wins
        counts[np.arange(graph.n), 1 - labels] = 1000 - wins
        table = table_of(counts, 1000, params=SmoothingParams(0.2, 0.9))
        curve = certified_accuracy_curve(table, labels, tau=5, alpha=0.01,
                                         nodes=split.test)
        values = [p.certified_accuracy for p in curve.points]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0
        assert values[0] > 0.5

    def test_a_radius_at_the_cap_ends_the_curve_at_zero(self, small_rho_cap):
        # Noise that removes nearly every injected node certifies the node up
        # to the radius search's cap; the curve reads 0 one budget past it,
        # a conservative cut, and so still terminates.
        table = VoteTable(counts=[[1000, 0]], abstains=[0], num_samples=1000,
                          params=SmoothingParams(0.5, 0.9999999), degrees=[1],
                          provenance={})
        assert certified_radii(table, 1, 0.01, [0])[2].tolist() == [small_rho_cap]
        curve = certified_accuracy_curve(table, [0], 1, 0.01)
        assert [p.rho for p in curve.points] == list(range(small_rho_cap + 2))
        assert curve.points[-2:] == (CurvePoint(small_rho_cap, 1.0, 0.0),
                                     CurvePoint(small_rho_cap + 1, 0.0, 0.0))
        assert curve.summary() == {"clean_accuracy": 1.0,
                                   "average_certified_radius": float(small_rho_cap),
                                   "abstain_rate": 0.0,
                                   "max_rho": small_rho_cap + 1}


class TestEvaluatedNodes:
    labels = np.array([0, -1, 1])
    table = perfect_table(3, 2, np.array([0, 1, 1]), num_samples=1000)

    def test_exclude_mode_requires_degrees(self):
        with pytest.raises(ValueError, match="degrees"):
            replace(self.table, mode="exclude", degrees=[])

    def test_rejects_unlabeled_nodes(self):
        curve = certified_accuracy_curve(self.table, self.labels, 2, 0.01,
                                         nodes=[0])
        assert curve.points[1].certified_accuracy == 1.0
        with pytest.raises(ValueError, match="labels"):
            certified_accuracy_curve(self.table, self.labels, 2, 0.01,
                                     nodes=[0, 1])

    @pytest.mark.parametrize("node", [-1, 3])
    def test_rejects_node_ids_out_of_range(self, node):
        # -1 used to index the last node and score its certificate.
        labels = np.array([0, 1, 1])
        with pytest.raises(ValueError, match=r"row ids must lie in \[0, 3\)"):
            certified_radii(self.table, 2, 0.01, [0, node])
        with pytest.raises(ValueError, match="row ids"):
            certified_accuracy_curve(self.table, labels, 2, 0.01, nodes=[node])


class TestReferenceCurve:
    """The radius-based curve against the per-rho, per-node loop it replaced."""

    def random_case(self, rng, mode):
        n = 25
        num_classes = int(rng.integers(2, 5))
        num_samples = int(rng.integers(50, 3000))
        labels = rng.integers(0, num_classes, size=n)
        labels[rng.random(n) < 0.2] = -1
        abstains = np.zeros(n, dtype=np.int64)
        if mode == "exclude":
            abstains = rng.binomial(num_samples, rng.uniform(0, 0.95, size=n))
        counts = np.zeros((n, num_classes), dtype=np.int64)
        for v in range(n):
            weights = np.ones(num_classes)
            weights[rng.integers(num_classes)] = rng.choice([1.0, 5.0, 50.0, 500.0])
            counts[v] = rng.multinomial(num_samples - abstains[v],
                                        rng.dirichlet(weights))
        params = SmoothingParams(float(rng.choice([0.0, 0.05, 0.1, 0.3, 0.9])),
                                 float(rng.choice(np.arange(10) / 10)))
        tau = int(rng.choice([1, 3, 10]))
        alpha = float(rng.choice([0.001, 0.01, 0.1]))
        degrees = rng.integers(0, 6, size=n)
        table = table_of(counts, num_samples, abstains, params, degrees, mode)
        return table, labels, params, tau, alpha, degrees

    @pytest.mark.parametrize("mode", ["include", "exclude"])
    def test_curve_and_single_budgets_match(self, mode):
        rng = np.random.default_rng(23 if mode == "include" else 24)
        certified = 0
        for _ in range(40):
            table, labels, params, tau, alpha, degrees = self.random_case(rng,
                                                                          mode)
            curve = certified_accuracy_curve(table, labels, tau, alpha)
            points, clean = reference_curve(table, labels, params, tau, alpha,
                                            table.counts.shape[1], mode,
                                            degrees=degrees)
            assert list(curve.points) == points
            assert curve.clean_accuracy == clean
            assert points[-1].certified_accuracy == 0.0
            certified += points[0].certified_accuracy > 0.0
            for rho in (0, 1, 2, 5, 40):
                # One budget reads the curve's point, or 0 past its last one.
                got = (points[rho].certified_accuracy if rho < len(points)
                       else 0.0)
                assert got == reference_certified_accuracy(
                    table, labels, PerturbationBudget(rho, tau), alpha)
        assert certified >= 10  # the cases certify, not just abstain


class TestAverageCertifiedRadius:
    def make_curve(self, values):
        points = tuple(CurvePoint(rho=i, certified_accuracy=v, abstain_rate=0.0)
                       for i, v in enumerate(values))
        return CertCurve(tau=5, points=points, clean_accuracy=values[0])

    def test_flat_then_zero(self):
        assert average_certified_radius(
            self.make_curve([0.9, 0.8, 0.8, 0.8, 0.0])) == pytest.approx(2.4)

    def test_single_step(self):
        assert average_certified_radius(
            self.make_curve([0.7, 0.5, 0.0])) == pytest.approx(0.5)

    def test_telescoped_identity(self):
        values = [1.0, 0.8, 0.5, 0.5, 0.2, 0.0]
        curve = self.make_curve(values)
        acr = average_certified_radius(curve)
        telescoped = sum(rho * (values[rho] - values[rho + 1])
                         for rho in range(len(values) - 1))
        assert abs(acr - telescoped) <= 1e-12

    def test_requires_terminated_curve(self):
        with pytest.raises(ValueError, match="terminate"):
            average_certified_radius(self.make_curve([0.9, 0.4]))

    def test_monotonicity_enforced_by_type(self):
        with pytest.raises(ValueError, match="non-increasing"):
            self.make_curve([0.5, 0.9, 0.0])

    def test_abstain_rate_checked_by_type(self):
        points = (CurvePoint(0, 0.5, 1.7), CurvePoint(1, 0.0, 1.7))
        with pytest.raises(ValueError, match="abstain rate must lie in"):
            CertCurve(tau=5, points=points, clean_accuracy=0.5)


class TestWriteReport:
    def make_curve(self):
        points = (CurvePoint(0, 1 / 3, 0.125), CurvePoint(1, 0.25, 0.125),
                  CurvePoint(2, 0.0, 0.125))
        return CertCurve(tau=5, points=points, clean_accuracy=0.5)

    def test_round_trip_and_byte_stability(self, tmp_path):
        curve = self.make_curve()
        meta = {"alpha": 0.01, "seed": 7, "wall_clock_seconds": 1.25}
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_report([curve], meta, first)
        write_report([curve], meta, second)
        csv_a = (first / "curve_tau5.csv").read_bytes()
        csv_b = (second / "curve_tau5.csv").read_bytes()
        assert csv_a == csv_b
        assert (first / "report.json").read_bytes() == \
            (second / "report.json").read_bytes()
        points = read_curve_csv(first / "curve_tau5.csv")
        assert points == list(curve.points)

    def test_seventeen_digit_floats(self, tmp_path):
        write_report([self.make_curve()], {}, tmp_path)
        text = (tmp_path / "curve_tau5.csv").read_text()
        assert "0.33333333333333331" in text

    def test_empty_curve_list_keeps_metadata(self, tmp_path):
        write_report([], {"note": "empty"}, tmp_path)
        body = (tmp_path / "report.json").read_text()
        assert '"note": "empty"' in body
        assert '"curves": []' in body

    def test_floats_read_back_as_the_same_doubles(self, tmp_path):
        values = [1 / 3, 0.1, 5e-4, 1.0, 0.0, 1e-300, 5e-324]

        def curve(tau, value):
            # Its clean accuracy, abstain rate and area all equal ``value``.
            points = (CurvePoint(0, value, value), CurvePoint(1, value, value),
                      CurvePoint(2, 0.0, value))
            return CertCurve(tau=tau, points=points, clean_accuracy=value)

        curves = [curve(tau, value) for tau, value in enumerate(values, start=1)]
        write_report(curves, {"values": values}, tmp_path)
        body = (tmp_path / "report.json").read_text()
        report = json.loads(body)
        summaries = report["curves"]
        read = [report["metadata"]["values"]] + [
            [s[key] for s in summaries] for key in
            ("clean_accuracy", "abstain_rate", "average_certified_radius")]
        for column in read:
            assert column == values
            assert all(type(v) is float for v in column)
        assert '"clean_accuracy": 0.1,' in body
        assert '"clean_accuracy": 0.0,' in body

    def test_report_contains_acr(self, tmp_path):
        write_report([self.make_curve()], {}, tmp_path)
        body = (tmp_path / "report.json").read_text()
        assert '"average_certified_radius": 0.25' in body
