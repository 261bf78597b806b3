import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (RecommenderCurvePoint, enumerate_item_probs,
                     reference_cooccurrence,
                     reference_item_votes, reference_jaccard,
                     reference_overlap_from_bounds,
                     reference_overlap_radii, reference_recommender_curve,
                     reference_topk)
from smoothcert import (InteractionMatrix, PerturbationBudget, SmoothingParams,
                        build_similarity, certified_overlap_radii,
                        certify_user_overlap, collect_item_votes,
                        recommend_topk, recommender_curve, top_items,
                        write_recommender_report)
from smoothcert import recsys
from smoothcert.certify import RHO_CAP
from smoothcert.recsys import ItemVoteTable, RecommenderCurve


@pytest.fixture
def two_user_matrix():
    # u0 rated items {0, 1}, u1 rated {1, 2}; item 3 is never rated.
    return InteractionMatrix(users=2, items=4,
                             pairs=[(0, 0), (0, 1), (1, 1), (1, 2)])


@pytest.fixture
def enum_matrix():
    # 6 interactions over 2 users; small enough to enumerate all outcomes.
    return InteractionMatrix(users=2, items=4,
                             pairs=[(0, 0), (0, 1), (0, 2),
                                    (1, 1), (1, 2), (1, 3)])


def table_from_frequencies(freqs, abstains, num_samples, k_prime, degrees,
                           params):
    counts = np.rint(np.asarray(freqs) * num_samples).astype(np.int64)
    return ItemVoteTable(counts=counts,
                         abstains=np.rint(np.asarray(abstains)
                                          * num_samples).astype(np.int64),
                         num_samples=num_samples, params=params,
                         degrees=np.asarray(degrees, dtype=np.int64),
                         provenance={"kind": "synthetic"}, k_prime=k_prime)


def random_item_table(rng):
    """A seeded vote table whose ground truths are voted more often than
    the other items, with a random strength, so some tables certify and
    some do not."""
    users = int(rng.integers(1, 13))
    items = int(rng.integers(3, 12))
    k_prime = int(rng.integers(1, 5))
    num_samples = int(rng.choice([1, 7, 50, 400, 5000]))
    ground_truths = {}
    freqs = rng.uniform(0.0, 0.3, size=(users, items))
    for u in rng.permutation(users)[:int(rng.integers(1, users + 1))]:
        gt = rng.choice(items, size=int(rng.integers(1, items + 1)),
                        replace=False)
        freqs[u, gt] = rng.uniform(0.3, 1.0, size=gt.size)
        ground_truths[int(u)] = [int(i) for i in gt]
    freqs[rng.random(freqs.shape) < 0.2] = rng.choice([0.0, 1.0])
    counts = rng.binomial(num_samples, freqs)
    table = ItemVoteTable(counts=counts, abstains=np.zeros(users),
                          num_samples=num_samples, params=SmoothingParams(0, 0),
                          degrees=rng.integers(1, 6, size=users),
                          provenance={"kind": "synthetic"}, k_prime=k_prime)
    return table, ground_truths


def random_rating_matrix(rng):
    """A seeded rating matrix with duplicated items (tied scores), duplicated
    users (tied rows) and users without any rating."""
    users = int(rng.integers(2, 11))
    items = int(rng.integers(2, 10))
    rated = rng.random((users, items)) < rng.uniform(0.2, 0.7)
    for i in range(1, items):
        if rng.random() < 0.3:
            rated[:, i] = rated[:, int(rng.integers(0, i))]
    for u in range(1, users):
        if rng.random() < 0.3:
            rated[u] = rated[int(rng.integers(0, u))]
        elif rng.random() < 0.15:
            rated[u] = False
    return InteractionMatrix(users=users, items=items,
                             pairs=np.argwhere(rated))


class TestSimilarity:
    def test_hand_counted_jaccard(self, two_user_matrix):
        similarity = build_similarity(two_user_matrix)
        assert similarity[0, 1] == pytest.approx(0.5)
        assert similarity[1, 2] == pytest.approx(0.5)
        assert similarity[0, 2] == 0.0
        assert similarity[1, 1] == 1.0
        assert similarity[3, 3] == 0.0  # never-rated item

    def test_disjoint_histories_have_zero_similarity(self):
        matrix = InteractionMatrix(users=2, items=4,
                                   pairs=[(0, 0), (0, 1), (1, 2), (1, 3)])
        similarity = build_similarity(matrix)
        for i in (0, 1):
            for j in (2, 3):
                assert similarity[i, j] == 0.0

    def test_identical_histories_are_fully_similar(self):
        matrix = InteractionMatrix(users=3, items=3,
                                   pairs=[(u, i) for u in range(3)
                                          for i in range(2)])
        similarity = build_similarity(matrix)
        assert similarity[0, 1] == 1.0


class TestRecommendTopK:
    def test_empty_history_recommends_nothing(self, two_user_matrix):
        similarity = build_similarity(two_user_matrix)
        assert recommend_topk(similarity, [], 3).size == 0

    def test_hand_scored_single_recommendation(self, two_user_matrix):
        similarity = build_similarity(two_user_matrix)
        recs = recommend_topk(similarity, [0, 1], 1)
        assert recs.tolist() == [2]  # score 0.5 via item 1

    def test_large_k_returns_all_scorable_items(self, two_user_matrix):
        similarity = build_similarity(two_user_matrix)
        recs = recommend_topk(similarity, [0], 10)
        # items 1 (co-rated) and 2 (via nothing) ... only positive scores
        assert recs.tolist() == [1]
        recs = recommend_topk(similarity, [1], 10)
        assert recs.tolist() == [0, 2]

    def test_ties_break_by_item_id(self, two_user_matrix):
        similarity = build_similarity(two_user_matrix)
        # items 0 and 2 both score 0.5 against history {1}
        assert recommend_topk(similarity, [1], 1).tolist() == [0]

    def test_k_prime_validation(self, two_user_matrix):
        with pytest.raises(ValueError):
            recommend_topk(build_similarity(two_user_matrix), [0], 0)

    def test_history_validation(self, two_user_matrix):
        similarity = build_similarity(two_user_matrix)
        for item in (-1, 4):
            with pytest.raises(ValueError):
                recommend_topk(similarity, [0, item], 2)

    def test_rows_are_padded_to_k_prime(self):
        # The two users of two_user_matrix and one without any rating.
        histories = sp.csr_matrix(np.array([[1.0, 1.0, 0.0, 0.0],
                                            [0.0, 1.0, 1.0, 0.0],
                                            [0.0, 0.0, 0.0, 0.0]]))
        top = top_items(histories, 6)
        assert top.tolist() == [[2, -1, -1, -1, -1, -1],
                                [0, -1, -1, -1, -1, -1], [-1] * 6]

    def test_matches_the_reference_per_user(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            matrix = random_rating_matrix(rng)
            similarity = build_similarity(matrix)
            cooccurrence = reference_cooccurrence(matrix)
            k_prime = int(rng.integers(1, matrix.items + 3))
            for u in range(matrix.users):
                history = matrix.items_of(u)
                expected = reference_topk(cooccurrence, history, k_prime)
                shuffled = rng.permutation(np.concatenate([history, history[:1]]))
                assert np.array_equal(
                    recommend_topk(similarity, shuffled, k_prime), expected)


def assert_ranked_as_reference(matrix, k_prime):
    """``top_items`` over the whole matrix against the per-user oracle."""
    top = top_items(recsys._histories(matrix), k_prime)
    cooccurrence = reference_cooccurrence(matrix)
    for u in range(matrix.users):
        expected = np.full(k_prime, -1)
        ranked = reference_topk(cooccurrence, matrix.items_of(u), k_prime)
        expected[:ranked.size] = ranked
        assert top[u].tolist() == expected.tolist()
    return top


class TestTopItems:
    """The column-blocked ranking against the per-user oracle, with 3-item
    blocks so that every case below spans several of them."""

    @pytest.fixture(autouse=True)
    def three_item_blocks(self, monkeypatch):
        monkeypatch.setattr(recsys, "_RANK_COLUMNS", 3)

    def test_tie_at_the_cut_spans_a_block_boundary(self):
        # User 0 rated item 0 only; items 2 | 3, 4, 5 all score 1/3 for it,
        # on both sides of the boundary between blocks {0, 1, 2} and {3, 4, 5}.
        matrix = InteractionMatrix(users=3, items=6,
                                   pairs=[(0, 0), (1, 0), (1, 2), (1, 4),
                                          (2, 0), (2, 3), (2, 5)])
        for k_prime in (1, 2, 3):
            top = assert_ranked_as_reference(matrix, k_prime)
            assert top[0].tolist() == [2, 3, 4][:k_prime]

    def test_k_prime_beyond_the_positive_scores(self, two_user_matrix):
        top = assert_ranked_as_reference(two_user_matrix, 7)
        assert top.tolist() == [[2] + [-1] * 6, [0] + [-1] * 6]

    def test_history_covering_every_item(self):
        matrix = InteractionMatrix(users=2, items=7,
                                   pairs=[(0, i) for i in range(7)]
                                   + [(1, 1), (1, 5)])
        top = assert_ranked_as_reference(matrix, 4)
        assert top[0].tolist() == [-1] * 4
        assert top[1].tolist() == [0, 2, 3, 4]

    def test_never_rated_item_is_never_ranked(self, two_user_matrix):
        # Item 3 has no rating: its column is 0 / 0 without the floor.
        with np.errstate(divide="raise", invalid="raise"):
            top = assert_ranked_as_reference(two_user_matrix, 3)
            similarity = build_similarity(two_user_matrix).toarray()
        assert not (top == 3).any()
        assert np.isfinite(similarity).all() and not similarity[:, 3].any()


def whole_product_top(histories, similarity, k_prime):
    """Each user's top ``k_prime`` items, padded with -1, from one CSR product
    of the histories with the whole dense ``similarity``: each user's
    similarities added in history order."""
    scores = histories @ similarity
    scores[histories.nonzero()] = 0.0
    top = np.full((histories.shape[0], k_prime), -1)
    for u, score in enumerate(scores):
        candidates = np.flatnonzero(score > 0.0)
        ranked = candidates[np.lexsort((candidates, -score[candidates]))][:k_prime]
        top[u, :ranked.size] = ranked
    return top


class TestJaccardSlabs:
    """The similarity, made one slab of item rows at a time and added into
    the scores slab by slab, gives the bits of the whole matrix and of one
    whole scoring product."""

    @pytest.mark.parametrize("users, items", [
        (30, 40),    # fewer items than one slab
        (30, 512),   # a whole number of slabs
        (30, 600),   # a ragged last slab
        (1, 600)])   # a single user
    def test_bit_equal_to_the_whole_product(self, users, items):
        rng = np.random.default_rng(users * items)
        matrix = InteractionMatrix(
            users=users, items=items,
            pairs=np.argwhere(rng.random((users, items)) < 0.1))
        histories = recsys._histories(matrix)
        whole = reference_jaccard(matrix)
        assert build_similarity(matrix).toarray().tobytes() == whole.tobytes()
        assert (top_items(histories, 10).tobytes()
                == whole_product_top(histories, whole, 10).tobytes())

    def test_odd_slabs_match_the_reference(self, monkeypatch):
        # Five-item slabs: 23 items make four whole slabs and a short one.
        # Item 22 has no rating and user 7 has one.
        monkeypatch.setattr(recsys, "_RANK_COLUMNS", 5)
        rng = np.random.default_rng(23)
        rated = rng.random((12, 23)) < 0.3
        rated[:, 22] = False
        rated[7] = False
        rated[7, 4] = True
        matrix = InteractionMatrix(users=12, items=23, pairs=np.argwhere(rated))
        histories = recsys._histories(matrix)
        assert build_similarity(matrix).toarray().tobytes() == \
            reference_jaccard(matrix).tobytes()
        for k_prime in (1, 6, 25):
            top = assert_ranked_as_reference(matrix, k_prime)
            assert top.tobytes() == whole_product_top(
                histories, reference_jaccard(matrix), k_prime).tobytes()
            assert not (top == 22).any() and (top[7] >= 0).any()
        params = SmoothingParams(0.2, 0.3)
        counts, abstains = reference_item_votes(matrix, 6, params, 6,
                                                master_seed=4)
        for threads in (1, 2):
            table = collect_item_votes(matrix, 6, params, 6, master_seed=4,
                                       threads=threads)
            assert table.counts.astype(np.int64).tobytes() == counts.tobytes()
            assert table.abstains.tobytes() == abstains.tobytes()
        assert counts.any() and not counts[:, 22].any()


class TestCollectItemVotes:
    def test_clean_single_sample_is_one_hot(self, two_user_matrix):
        table = collect_item_votes(two_user_matrix, 1, SmoothingParams(0, 0),
                                   k_prime=2, master_seed=3)
        model = build_similarity(two_user_matrix)
        for u in range(2):
            recs = recommend_topk(model, two_user_matrix.items_of(u), 2)
            expected = np.zeros(4, dtype=np.int64)
            expected[recs] = 1
            assert np.array_equal(table.counts[u], expected)
        assert not table.abstains.any()

    def test_full_user_deletion_abstains_always(self, two_user_matrix):
        table = collect_item_votes(two_user_matrix, 9, SmoothingParams(0, 1),
                                   k_prime=2, master_seed=3)
        assert np.all(table.abstains == 9)
        assert table.counts.sum() == 0

    def test_provenance_binds_the_rating_matrix(self, two_user_matrix,
                                                enum_matrix):
        tables = [collect_item_votes(matrix, 3, SmoothingParams(0.1, 0.1), 2,
                                     master_seed=3)
                  for matrix in (two_user_matrix, enum_matrix)]
        assert tables[0].provenance["matrix"] == two_user_matrix.fingerprint()
        assert tables[0].provenance["matrix"] != tables[1].provenance["matrix"]

    def test_disjoint_ranges_merge_to_full_run(self, enum_matrix):
        params = SmoothingParams(0.4, 0.2)
        full = collect_item_votes(enum_matrix, 8, params, 2, master_seed=5)
        lo = collect_item_votes(enum_matrix, 4, params, 2, master_seed=5)
        hi = collect_item_votes(enum_matrix, 4, params, 2, master_seed=5,
                                first_index=4)
        for merged in (lo.merged(hi), hi.merged(lo)):
            assert type(merged) is ItemVoteTable and merged.k_prime == 2
            assert np.array_equal(merged.counts, full.counts)
            assert np.array_equal(merged.abstains, full.abstains)
            assert merged.num_samples == 8 and merged.params == params
            assert merged.provenance == full.provenance

    def test_merge_rejects_double_counts_gaps_and_other_runs(self, enum_matrix):
        def collect(lo, hi, params=SmoothingParams(0.4, 0.2), k_prime=2):
            return collect_item_votes(enum_matrix, hi - lo, params, k_prime,
                                      master_seed=5, first_index=lo)

        a = collect(0, 4)
        with pytest.raises(ValueError, match="itself"):
            a.merged(a)
        for b, reason in ((collect(2, 6), "overlap"), (collect(6, 8), "gap"),
                          (collect(4, 8, SmoothingParams(0.4, 0.3)),
                           "different runs"),
                          (collect(4, 8, k_prime=3), "different runs")):
            with pytest.raises(ValueError, match=reason):
                a.merged(b)
            with pytest.raises(ValueError, match=reason):
                b.merged(a)

    @pytest.mark.parametrize("first_index, refused", [
        (-2, True), (2**64 - 3, True), (2**64 - 4, False)],
        ids=["negative", "past-the-last-seed", "up-to-the-last-seed"])
    def test_sample_range_stays_where_seeds_are_distinct(self, first_index,
                                                          refused):
        # derive_sample_seed is a bijection in the index on [0, 2**64 - 1), so
        # a range outside it could draw one sample twice: index -1 draws the
        # sample of index 2**64 - 1.
        def collect():
            return collect_item_votes(InteractionMatrix(3, 3, [(0, 1), (1, 2)]),
                                      3, SmoothingParams(0.1, 0.1), 1,
                                      master_seed=1, first_index=first_index)

        # The range is refused before the first sample is drawn.
        calls = []

        def spy(lo, hi, add):
            calls.append((lo, hi))
            add(np.zeros((1, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))

        def collect_spied():
            return ItemVoteTable.collect(spy, (1, 2), 3, first_index, 1,
                                         params=SmoothingParams(0.1, 0.1),
                                         degrees=[1], provenance={}, k_prime=1)

        if refused:
            for run in (collect, collect_spied):
                with pytest.raises(ValueError, match="sample range"):
                    run()
            assert calls == []
        else:
            assert collect().first_index + 3 == 2**64 - 1
            assert collect_spied().first_index == first_index
            assert calls == [(first_index, first_index + 3)]

    def test_table_rejects_impossible_votes(self):
        fields = dict(params=SmoothingParams(0.1, 0.1), degrees=[2],
                      provenance={}, k_prime=1)
        # Every sample abstained, yet the first item was voted in each.
        with pytest.raises(ValueError, match="more votes"):
            ItemVoteTable(counts=[[1000, 0, 0, 0]], abstains=[1000],
                          num_samples=1000, **fields)
        with pytest.raises(ValueError, match="non-negative"):
            ItemVoteTable(counts=[[-1, 0]], abstains=[0], num_samples=10,
                          **fields)

    def test_thread_count_invariance(self, enum_matrix):
        params = SmoothingParams(0.4, 0.2)
        serial = collect_item_votes(enum_matrix, 300, params, 2, master_seed=5,
                                    threads=1)
        parallel = collect_item_votes(enum_matrix, 300, params, 2, master_seed=5,
                                      threads=3)
        assert np.array_equal(serial.counts, parallel.counts)
        assert np.array_equal(serial.abstains, parallel.abstains)

    @pytest.mark.parametrize("block_columns", [recsys._RANK_COLUMNS, 3])
    def test_bit_equal_to_the_reference_loop(self, monkeypatch, block_columns):
        # A 3-column block splits the items into several blocks.
        monkeypatch.setattr(recsys, "_RANK_COLUMNS", block_columns)
        rng = np.random.default_rng(5150)
        voted = 0
        for case in range(64):
            matrix = random_rating_matrix(rng)
            params = SmoothingParams(float(rng.choice([0.0, 0.2, 0.5])),
                                     0.0 if case % 2 else float(rng.choice([0.2, 0.6])))
            # Up to two past the item count: beyond every candidate list.
            k_prime = int(rng.integers(1, matrix.items + 3))
            num_samples = int(rng.integers(1, 9))
            counts, abstains = reference_item_votes(matrix, num_samples, params,
                                                    k_prime, master_seed=case)
            for threads in (1, 3):
                table = collect_item_votes(matrix, num_samples, params, k_prime,
                                           master_seed=case, threads=threads)
                # At most 8 samples: the counts are int8, the oracle's int64.
                assert table.counts.dtype == np.int8
                assert np.array_equal(table.counts, counts)
                assert table.abstains.tobytes() == abstains.tobytes()
            voted += bool(counts.any())
        assert voted >= 40

    def test_one_sample_never_holds_the_item_similarity(self):
        # 50 users rating about 600 of 3000 items each: most item pairs
        # co-occur, so a whole similarity matrix would take about 100 MB.
        rng = np.random.default_rng(3000)
        matrix = InteractionMatrix(users=50, items=3000,
                                   pairs=np.argwhere(rng.random((50, 3000)) < 0.2))
        tracemalloc.start()
        try:
            collect_item_votes(matrix, 1, SmoothingParams(0, 0), k_prime=10,
                               master_seed=0, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_ranking_blocks_reuse_one_workspace(self, monkeypatch):
        # 300 users rating about 6 % of 1500 items, as in MovieLens-100k:
        # six column blocks of six item slabs each. Every slab writes into
        # the buffers that the call allocates before its first slab, so
        # each slab after it allocates less than one users x block float64
        # array.
        rng = np.random.default_rng(1500)
        matrix = InteractionMatrix(users=300, items=1500,
                                   pairs=np.argwhere(rng.random((300, 1500)) < 0.06))
        histories = recsys._histories(matrix)
        one_block = matrix.users * recsys._RANK_COLUMNS * 8
        rises, start = [], []
        slab = recsys._jaccard_slab

        def block_start():
            if start:
                rises.append(tracemalloc.get_traced_memory()[1] - start.pop())
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])

        def traced(*args):
            block_start()
            return slab(*args)
        monkeypatch.setattr(recsys, "_jaccard_slab", traced)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            top_items(histories, 10)
            block_start()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(rises) == 6 * 6
        assert max(rises[1:]) < one_block, rises

    def test_frequencies_match_enumeration(self, enum_matrix):
        params = SmoothingParams(p_e=0.35, p_n=0.25)
        k_prime = 2
        exact, exact_abstain = enumerate_item_probs(enum_matrix, params, k_prime)
        draws = 20_000
        table = collect_item_votes(enum_matrix, draws, params, k_prime,
                                   master_seed=11)
        freq = table.counts / draws
        sigma = np.sqrt(exact * (1 - exact) / draws)
        assert np.all(np.abs(freq - exact) <= 4 * sigma + 1e-12)
        ab_freq = table.abstains / draws
        ab_sigma = np.sqrt(exact_abstain * (1 - exact_abstain) / draws)
        assert np.all(np.abs(ab_freq - exact_abstain) <= 4 * ab_sigma + 1e-12)


def precision_recall_at(table, ground_truths, k, budget, alpha):
    """Certified precision and recall at one budget: the curve's point at
    ``budget.rho``, zero past its last rho."""
    points = recommender_curve(table, ground_truths, k, budget.tau,
                               alpha).points.tolist()
    if budget.rho >= len(points):
        return 0.0, 0.0
    return points[budget.rho][1:]


def traced_peak(run):
    """The tracemalloc peak of ``run()`` over what was traced before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


class TestBoundedVoteMemory:
    """A recommender run holds its one vote table and one ranking workspace
    per pool thread, however many samples and chunks it counts."""

    # 200 users with about 60 ratings each of 2000 items, near the median
    # MovieLens-100k user. The sampler's own arrays grow with the ratings,
    # the bounds below with the users and items.
    rng = np.random.default_rng(2000)
    matrix = InteractionMatrix(users=200, items=2000,
                               pairs=np.argwhere(rng.random((200, 2000)) < 0.03))
    params = SmoothingParams(0.1, 0.7)
    k_prime = 10
    one_block = matrix.users * recsys._RANK_COLUMNS * 8
    # At most 16 samples: int8 counts and int64 abstains.
    table = matrix.users * matrix.items * 1 + matrix.users * 8

    def workspace(self):
        """Bytes of one top_items workspace, buffer by buffer."""
        users, items, k = self.matrix.users, self.matrix.items, self.k_prime
        width = min(recsys._RANK_COLUMNS, items)
        return (users * k * 8                   # running top items
                + 2 * users * (k + width) * 8   # scores, partitioned scores
                + users * (k + width)           # candidate mask
                + 2 * users * width * 8         # rated and scored blocks
                + 2 * width * width * 8)        # Jaccard slab, denominators

    @pytest.mark.parametrize("items", [2000, 50_000])
    def test_workspace_bytes_do_not_grow_with_the_items(self, items):
        # Past one block of columns, a workspace holds no buffer that grows
        # with the item count: 50 000 items take the bytes of 2000.
        built = traced_peak(lambda: recsys._RankingWorkspace(
            self.matrix.users, items, self.k_prime))
        assert 0 <= built - self.workspace() < 4096, built

    def collect(self, num_samples, threads):
        return collect_item_votes(self.matrix, num_samples, self.params,
                                  self.k_prime, master_seed=0, threads=threads)

    def test_peak_does_not_grow_with_the_sample_count(self):
        peaks = [traced_peak(lambda: self.collect(n, 1)) for n in (4, 16)]
        assert peaks[1] - peaks[0] < self.one_block, peaks

    @pytest.mark.parametrize("chunked", [False, True])
    def test_peak_is_one_table_and_one_workspace(self, serial_pool, chunked):
        # Chunked: eight chunks, run one after another on two "CPUs".
        if chunked:
            serial_pool(2)
        peak = traced_peak(lambda: self.collect(16, 2 if chunked else 1))
        assert peak < self.table + self.workspace() + 2 * self.one_block, peak

    @pytest.mark.parametrize("chunked", [False, True])
    def test_samples_after_the_first_allocate_no_workspace(self, monkeypatch,
                                                           serial_pool, chunked):
        # Each sample, from its draw to the next sample's draw, allocates
        # less than one users x block float64 array: the workspace is made
        # once and reused across the samples and chunks.
        if chunked:
            serial_pool(2)
        rises, start = [], []
        sample = recsys.sample_smoothed_ratings

        def sample_start():
            if start:
                rises.append(tracemalloc.get_traced_memory()[1] - start.pop())
            tracemalloc.reset_peak()
            start.append(tracemalloc.get_traced_memory()[0])

        def traced(*args):
            sample_start()
            return sample(*args)
        monkeypatch.setattr(recsys, "sample_smoothed_ratings", traced)
        traced_peak(lambda: (self.collect(16, 2 if chunked else 1), sample_start()))
        assert len(rises) == 16
        assert max(rises[1:]) < self.one_block, rises

    def test_overlap_rows_take_no_copy_of_the_table(self):
        rng = np.random.default_rng(1000)
        users, items = 1000, 500
        table = ItemVoteTable(counts=rng.integers(0, 101, size=(users, items)),
                              abstains=np.zeros(users), num_samples=100,
                              params=SmoothingParams(0.1, 0.7),
                              degrees=np.ones(users), provenance={}, k_prime=5)
        ground_truths = {u: rng.choice(items, size=3, replace=False).tolist()
                         for u in range(users)}
        peak = traced_peak(lambda: certified_overlap_radii(
            table, ground_truths, 5, 2, 0.01))
        assert peak < users * items * 8, peak


class TestCertifyOverlap:
    """The fixed-bounds overlap oracle, evaluated by hand."""

    def test_hand_evaluation_of_the_condition(self):
        # k = 2, k' = 3, all-removed probability 0.9, isolation 0.2.
        # r = 2: candidate set is the single largest upper bound 0.31;
        # 0.9 * 0.6 - (0.9 * 0.31 + 3 * 0.1 * 0.8) / 1 = 0.021 > 0.
        r = reference_overlap_from_bounds([0.8, 0.6], [0.31, 0.2, 0.1], k=2,
                                          k_prime=3, p_hat=0.9, p_isolated=0.2)
        assert r == 2

    def test_averaging_over_candidates_helps(self):
        # With one huge and one small upper bound, c = 2 rescues the
        # certificate that c = 1 alone would lose.
        gt = [0.9]
        uppers = [0.85, 0.05]
        r_all = reference_overlap_from_bounds(gt, uppers, k=1, k_prime=2,
                                              p_hat=1.0, p_isolated=0.5)
        assert r_all == 1

    def test_zero_votes_certify_nothing(self):
        assert reference_overlap_from_bounds([0.0, 0.0], [0.0], k=2, k_prime=3,
                                             p_hat=0.9, p_isolated=0.2) == 0


class TestCertifyUserOverlap:
    def make_confident_table(self, params=SmoothingParams(0.2, 0.2)):
        # user 0: ground truth items {0, 1} recommended in ~80% of samples,
        # items 2..5 almost never.
        freqs = np.array([[0.80, 0.78, 0.02, 0.01, 0.0, 0.0]])
        return table_from_frequencies(freqs, [0.1], 10_000, k_prime=3,
                                      degrees=[4], params=params)

    def test_zero_budget_reduces_to_clean_ranking(self):
        table = self.make_confident_table()
        r = certify_user_overlap(table, 0, {0, 1}, k=2,
                                 budget=PerturbationBudget(rho=0, tau=3),
                                 alpha=0.01)
        assert r == 2

    def test_zero_table_certifies_nothing(self):
        table = table_from_frequencies(np.zeros((1, 6)), [1.0], 1000, 3, [4],
                                       SmoothingParams(0.2, 0.2))
        r = certify_user_overlap(table, 0, {0, 1}, k=2,
                                 budget=PerturbationBudget(rho=0, tau=3),
                                 alpha=0.01)
        assert r == 0

    def test_overlap_non_increasing_in_budget(self):
        table = self.make_confident_table(SmoothingParams(0.2, 0.6))
        radii = [certify_user_overlap(table, 0, {0, 1}, 2,
                                      PerturbationBudget(rho=rho, tau=3), 0.01)
                 for rho in range(6)]
        assert all(a >= b for a, b in zip(radii, radii[1:]))
        taus = [certify_user_overlap(table, 0, {0, 1}, 2,
                                     PerturbationBudget(rho=1, tau=tau), 0.01)
                for tau in range(1, 6)]
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_validation(self):
        table = self.make_confident_table()
        budget = PerturbationBudget(rho=0, tau=3)
        with pytest.raises(ValueError, match="k <= k_prime"):
            certify_user_overlap(table, 0, {0}, 5, budget, 0.01)
        unrated = replace(table, degrees=[0])
        with pytest.raises(ValueError, match="training rating"):
            certify_user_overlap(unrated, 0, {0}, 2, budget, 0.01)
        with pytest.raises(ValueError, match="non-empty"):
            certify_user_overlap(table, 0, set(), 2, budget, 0.01)
        for item in (6, -1):
            with pytest.raises(ValueError, match="out of range"):
                certify_user_overlap(table, 0, {0, item}, 2, budget, 0.01)
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                certify_user_overlap(table, 0, {0}, 2, budget, alpha)
        certain = replace(table, params=SmoothingParams(1.0, 0.2))
        with pytest.raises(ValueError, match="p_e < 1"):
            certify_user_overlap(certain, 0, {0}, 2, budget, 0.01)

    def test_exact_probabilities_never_weaker_than_bounds(self, enum_matrix):
        params = SmoothingParams(p_e=0.35, p_n=0.25)
        k, k_prime = 2, 2
        exact, _ = enumerate_item_probs(enum_matrix, params, k_prime)
        table = collect_item_votes(enum_matrix, 20_000, params, k_prime,
                                   master_seed=11)
        gt = {1, 2}
        user = 0
        d_u = int(enum_matrix.user_degrees[user])
        from smoothcert import prob_all_removed_recsys
        for rho in range(4):
            budget = PerturbationBudget(rho=rho, tau=2)
            p_hat = prob_all_removed_recsys(params, budget.tau, budget.rho)
            p_iso = params.p_n + (1 - params.p_n) * params.p_e ** d_u
            gt_idx = np.array(sorted(gt))
            others = np.setdiff1d(np.arange(enum_matrix.items), gt_idx)
            r_exact = reference_overlap_from_bounds(
                exact[user, gt_idx], exact[user, others], k, k_prime, p_hat, p_iso)
            r_bounds = certify_user_overlap(table, user, gt, k, budget,
                                            alpha=0.01)
            assert r_exact >= r_bounds


class TestCertifiedPrecisionRecall:
    noise = SmoothingParams(0.1, 0.1)

    def test_saturated_votes_give_full_precision(self):
        freqs = np.array([[1.0, 1.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 1.0, 0.0]])
        table = table_from_frequencies(freqs, [0.0, 0.0], 50_000, k_prime=3,
                                       degrees=[3, 3], params=self.noise)
        precision, recall = precision_recall_at(
            table, {0: [0, 1], 1: [2, 3]}, k=2,
            budget=PerturbationBudget(rho=0, tau=2), alpha=0.01)
        assert precision == 1.0
        assert recall == 1.0

    def test_repeated_ground_truth_items_count_once(self):
        freqs = np.array([[1.0, 1.0, 0.0, 0.0, 0.0]])
        table = table_from_frequencies(freqs, [0.0], 50_000, k_prime=3,
                                       degrees=[3], params=self.noise)
        args = (2, PerturbationBudget(rho=0, tau=2), 0.01)
        assert precision_recall_at(table, {0: [0, 1, 1]}, *args) == \
            precision_recall_at(table, {0: [0, 1]}, *args) == (1.0, 1.0)

    def test_empty_votes_give_zero(self):
        table = table_from_frequencies(np.zeros((2, 5)), [1.0, 1.0], 1000, 3,
                                       [3, 3], self.noise)
        precision, recall = precision_recall_at(
            table, {0: [0], 1: [2]}, k=2,
            budget=PerturbationBudget(rho=0, tau=2), alpha=0.01)
        assert precision == 0.0 and recall == 0.0

    def test_rejects_empty_ground_truth(self):
        table = table_from_frequencies(np.zeros((1, 5)), [1.0], 1000, 3, [3],
                                       self.noise)
        with pytest.raises(ValueError, match="empty ground truth"):
            precision_recall_at(table, {0: []}, 2,
                                PerturbationBudget(rho=0, tau=2), 0.01)
        with pytest.raises(ValueError, match="no users"):
            precision_recall_at(table, {}, 2,
                                PerturbationBudget(rho=0, tau=2), 0.01)


class TestRecommenderCurve:
    @pytest.mark.parametrize("precisions, message", [
        ([1.5, 0.0], "certified precision must lie in"),
        ([0.2, 0.5, 0.0], "certified precision must be non-increasing"),
        ([1.5, 0.0], "certified recall must lie in"),
        ([0.2, 0.5, 0.0], "certified recall must be non-increasing")])
    def test_type_checks_the_certified_precision(self, precisions, message):
        # The values fill the column the message names; the other one is 0.
        zeros = [0.0] * len(precisions)
        columns = (zeros, precisions) if "recall" in message else (precisions, zeros)
        with pytest.raises(ValueError, match=message):
            RecommenderCurve.from_shares(2, *columns)

    def test_curve_is_monotone_and_reaches_zero(self):
        freqs = np.array([[0.85, 0.80, 0.02, 0.0, 0.0, 0.0]])
        table = table_from_frequencies(freqs, [0.1], 20_000, k_prime=3,
                                       degrees=[5],
                                       params=SmoothingParams(0.1, 0.55))
        curve = recommender_curve(table, {0: [0, 1]}, k=2, tau=3, alpha=0.01)
        precisions = [p.certified_precision for p in curve.points]
        assert precisions[0] > 0
        assert all(a >= b for a, b in zip(precisions, precisions[1:]))
        assert precisions[-1] == 0.0

    def test_a_radius_at_the_cap_ends_the_curve_at_zero(self, small_rho_cap):
        # One user whose one ground-truth item is always recommended, under
        # noise that removes nearly every injected user: certified up to the
        # search's cap, and read as 0 one budget past it.
        table = ItemVoteTable(counts=[[1000, 0, 0]], abstains=[0],
                              num_samples=1000,
                              params=SmoothingParams(0.5, 0.9999999),
                              degrees=[1], provenance={}, k_prime=1)
        assert certified_overlap_radii(table, {0: [0]}, 1, 1,
                                       0.01).tolist() == [[small_rho_cap]]
        curve = recommender_curve(table, {0: [0]}, k=1, tau=1, alpha=0.01)
        assert curve.points[-2:].tolist() == [
            RecommenderCurvePoint(small_rho_cap, 1.0, 1.0),
            RecommenderCurvePoint(small_rho_cap + 1, 0.0, 0.0)]
        assert curve.summary()["max_rho"] == small_rho_cap + 1

    def test_a_radius_at_the_real_cap_ends_the_curve_at_zero(self):
        table = ItemVoteTable(counts=[[1000, 0, 0]], abstains=[0],
                              num_samples=1000,
                              params=SmoothingParams(0.5, 0.9999999),
                              degrees=[1], provenance={}, k_prime=1)
        curve = recommender_curve(table, {0: [0]}, k=1, tau=1, alpha=0.01)
        assert len(curve.points) == RHO_CAP + 2
        assert curve.points[-2:].tolist() == [
            RecommenderCurvePoint(RHO_CAP, 1.0, 1.0),
            RecommenderCurvePoint(RHO_CAP + 1, 0.0, 0.0)]
        assert curve.summary() == {
            "acr_precision": float(RHO_CAP), "acr_recall": float(RHO_CAP),
            "clean_certified_precision": 1.0, "clean_certified_recall": 1.0,
            "max_rho": RHO_CAP + 1}

    def test_report_round_trip(self, tmp_path):
        freqs = np.array([[0.85, 0.80, 0.02, 0.0, 0.0, 0.0]])
        table = table_from_frequencies(freqs, [0.1], 20_000, k_prime=3,
                                       degrees=[5],
                                       params=SmoothingParams(0.1, 0.55))
        curve = recommender_curve(table, {0: [0, 1]}, k=2, tau=3, alpha=0.01)
        write_recommender_report([curve], {"seed": 1}, tmp_path)
        text = (tmp_path / "recsys_curve_tau3.csv").read_text()
        assert text.splitlines()[0] == "rho,certified_precision,certified_recall"
        assert (tmp_path / "report.json").exists()
        again = tmp_path / "again"
        write_recommender_report([curve], {"seed": 1}, again)
        assert (tmp_path / "recsys_curve_tau3.csv").read_bytes() == \
            (again / "recsys_curve_tau3.csv").read_bytes()


class TestCertifiedOverlapRadii:
    noise = SmoothingParams(0.1, 0.55)

    def test_row_blocks_give_the_reference_radii(self, monkeypatch):
        # Blocks of 3 rows split most tables' users into several blocks,
        # and blocks of 5 (user, r) rows their bounds.
        monkeypatch.setattr(recsys, "_OVERLAP_ROWS", 3)
        monkeypatch.setattr(recsys, "_OVERLAP_BOUNDS", 5)
        rng = np.random.default_rng(2025)
        certifying = 0
        for _ in range(40):
            table, ground_truths = random_item_table(rng)
            table = replace(table, params=self.noise)
            k = int(rng.integers(1, table.k_prime + 1))
            radii = certified_overlap_radii(table, ground_truths, k, 2, 0.1)
            assert np.array_equal(radii, reference_overlap_radii(
                table, ground_truths, k, 2, 0.1))
            certifying += bool((radii >= 1).any())
        assert certifying >= 10, certifying

    def test_curves_match_the_reference_loop(self):
        rng = np.random.default_rng(2024)
        certifying = 0
        for _ in range(80):
            table, ground_truths = random_item_table(rng)
            k = int(rng.integers(1, table.k_prime + 1))
            params = SmoothingParams(float(rng.choice([0.0, 0.1, 0.4])),
                                     float(rng.choice([0.3, 0.6, 0.9])))
            table = replace(table, params=params)
            tau = int(rng.choice([1, 3, 10]))
            alpha = float(rng.choice([0.001, 0.01, 0.1, 0.5]))
            curve = recommender_curve(table, ground_truths, k, tau, alpha)
            expected = reference_recommender_curve(table, ground_truths, k,
                                                   params, tau, alpha)
            assert curve.points.tolist() == expected
            certifying += len(curve.points) > 1
            rho = int(rng.integers(0, len(expected) + 1))
            radii = certified_overlap_radii(table, ground_truths, k, tau, alpha)
            assert np.array_equal(radii, reference_overlap_radii(
                table, ground_truths, k, tau, alpha))
            # One point of the curve is a count of the radii, in user order.
            hits = (radii >= rho).sum(axis=1)
            last = expected[min(rho, len(expected) - 1)]
            assert last.certified_precision == sum(h / k for h in hits) / hits.size
            budget = PerturbationBudget(rho=rho, tau=tau)
            for hit, (user, gt) in zip(hits, ground_truths.items()):
                single = certify_user_overlap(table, user, gt, k, budget, alpha)
                alone = precision_recall_at(table, {user: gt}, k, budget, alpha)
                assert single == hit and alone[0] == single / k
        assert 10 <= certifying <= 70

    def test_radii_equal_the_scan_at_high_noise(self):
        # Both pairs certify past rho = 200, far beyond the random tables.
        table = table_from_frequencies([[0.95, 0.9, 0.02, 0.0, 0.0, 0.0]], [0.0],
                                       10000, 3, [3], SmoothingParams(0.9, 0.9))
        radii = certified_overlap_radii(table, {0: [0, 1]}, 2, 1, 0.01)
        assert np.array_equal(radii, reference_overlap_radii(table, {0: [0, 1]},
                                                             2, 1, 0.01))
        assert radii.min() > 200

    def test_radii_shape_and_order(self):
        freqs = np.array([[0.85, 0.80, 0.02, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        table = table_from_frequencies(freqs, [0.1, 1.0], 20_000, k_prime=3,
                                       degrees=[5, 2], params=self.noise)
        radii = certified_overlap_radii(table, {1: [3], 0: [0, 1]}, 3, 3, 0.01)
        assert radii.shape == (2, 3)
        assert radii[0].tolist() == [-1, -1, -1]  # user 1 certifies nothing
        assert radii[1, 0] >= radii[1, 1] >= 0 and radii[1, 2] == -1

    def test_rejects_user_out_of_range(self):
        table = table_from_frequencies(np.full((2, 4), 0.5), [0.0, 0.0], 100,
                                       k_prime=2, degrees=[3, 3],
                                       params=SmoothingParams(0.1, 0.5))
        for user in (-1, 2):
            with pytest.raises(ValueError, match="user index out of range"):
                certified_overlap_radii(table, {0: [0], user: [1]}, 1, 2, 0.01)

    def test_fewer_hits_certified_wherever_more_are(self):
        # Row r is bounded at level alpha / (|gt| + k - r + 1). With tied
        # ground-truth counts, r = 2 certifies at rho = 0 while r = 1 alone
        # does not, so the radius for "at least one hit" is that of two.
        params = SmoothingParams(0.1, 0.5)
        table = ItemVoteTable(counts=[[18, 18, 2, 2]], abstains=[0],
                              num_samples=50, params=params, degrees=[3],
                              provenance={"kind": "synthetic"}, k_prime=2)
        radii = certified_overlap_radii(table, {0: [0, 1]}, 2, 2, 0.01)
        assert radii.tolist() == [[0, 0]]
        assert certify_user_overlap(table, 0, [0, 1], 2,
                                    PerturbationBudget(rho=0, tau=2), 0.01) == 2
        curve = recommender_curve(table, {0: [0, 1]}, 2, 2, 0.01)
        assert curve.points.tolist() == reference_recommender_curve(
            table, {0: [0, 1]}, 2, params, 2, 0.01)

    def test_precision_adds_users_in_order(self):
        # These overlaps certify at rho = 0. Adding m / 3 over the users
        # pairwise, as np.sum does, rounds differently than adding in order.
        overlaps = [1, 3, 2, 0, 1, 3, 2, 0, 3, 2, 3, 0, 0, 3, 0, 2, 0, 1, 1, 1]
        freqs = np.zeros((20, 6))
        for u, m in enumerate(overlaps):
            freqs[u, :m] = 1.0
        params = SmoothingParams(0.1, 0.5)
        table = table_from_frequencies(freqs, np.zeros(20), 1000, k_prime=3,
                                       degrees=np.full(20, 3), params=params)
        ground_truths = {u: [0, 1, 2] for u in range(20)}
        radii = certified_overlap_radii(table, ground_truths, 3, 2, 0.01)
        assert ((radii >= 0).sum(axis=1) == overlaps).all()
        curve = recommender_curve(table, ground_truths, 3, 2, 0.01)
        assert curve.points.tolist() == reference_recommender_curve(
            table, ground_truths, 3, params, 2, 0.01)
