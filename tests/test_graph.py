import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (degree, has_edge, neighbors, reference_graph_edges,
                     reference_ratings_split, reference_sbm_edges)
from smoothcert import graph as graph_module
from smoothcert import (Graph, DataSplit, InteractionMatrix, ParseError,
                        generate_sbm, load_interaction_dataset,
                        load_node_classification_dataset,
                        save_node_classification_dataset, seeded_split)


def write_dataset(tmp_path, edge_text, node_text):
    edges = tmp_path / "edges.tsv"
    nodes = tmp_path / "nodes.csv"
    edges.write_text(edge_text)
    nodes.write_text(node_text)
    return edges, nodes


class TestGraphType:
    def test_symmetry_is_forced(self):
        g = Graph(2, [(0, 1)], np.zeros((2, 1)))
        assert list(neighbors(g, 0)) == [1]
        assert list(neighbors(g, 1)) == [0]

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0)], np.zeros((2, 1)))
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)], np.zeros((3, 1)))
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 5)], np.zeros((2, 1)))

    def test_degree(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2)], np.zeros((4, 1)))
        assert degree(g, 3) == 0
        assert degree(g, 0) == 2
        assert g.degrees.tolist() == [degree(g, v) for v in range(4)]
        with pytest.raises(ValueError):
            degree(g, 4)

    def test_degree_sum_equals_twice_edges(self):
        graph, _ = generate_sbm(60, 3, 0.3, 0.05, 3, seed=11)
        assert int(graph.degrees.sum()) == 2 * graph.num_edges

    def test_edge_order_and_orientation_do_not_matter(self):
        graph, _ = generate_sbm(60, 3, 0.3, 0.05, 3, seed=11)
        rng = np.random.default_rng(0)
        edges = graph.edges[rng.permutation(graph.num_edges)]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]
        shuffled = Graph(graph.n, edges, graph.features, graph.labels)
        assert shuffled == graph
        assert np.array_equal(shuffled.degrees, graph.degrees)
        for v in range(graph.n):
            expected = sorted({int(u) for a, b in graph.edges.tolist()
                               for u, w in ((a, b), (b, a)) if w == v})
            assert neighbors(graph, v).tolist() == expected
            assert neighbors(shuffled, v).tolist() == expected

    @pytest.mark.parametrize("n, edges", [(0, []), (3, []),
                                          (4, [(0, 1), (1, 2), (0, 2)])])
    def test_degrees_are_stored_once(self, n, edges):
        g = Graph(n, edges, np.zeros((n, 1)))
        assert "degrees" in vars(g) and g.degrees is g.degrees
        assert g.degrees.dtype == np.int64 and not g.degrees.flags.writeable
        assert g.degrees.shape == (n,)
        assert np.array_equal(g.degrees, np.bincount(g.edges.ravel(), minlength=n))

    def test_arrays_are_frozen(self):
        g = Graph(2, [(0, 1)], np.zeros((2, 1)))
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1

    def test_views_of_writable_arrays_are_copied(self):
        # Every argument below is a contiguous view of the stored type, so
        # only a copy keeps the graph from changing with its base.
        edges, features = np.array([[0, 1], [1, 2], [0, 2]]), np.zeros((4, 2))
        labels = np.array([0, 1, 1, 0])
        g = Graph(3, edges[:2], features[:3], labels[:3])
        m = InteractionMatrix(users=2, items=3, pairs=edges[:2])
        before = g.fingerprint(), m.fingerprint()
        edges[0], features[0], labels[0] = (0, 2), 5.0, 1
        assert (g.fingerprint(), m.fingerprint()) == before
        assert edges.flags.writeable and features.flags.writeable


@st.composite
def edge_lists(draw):
    """``(n, edges)``: an edge list of one of the shapes ``Graph`` tells
    apart, drawn over a graph on ``n`` nodes."""
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))))
    edges = [list(pair) for pair in chosen]  # canonical: sorted, u < v
    shape = draw(st.sampled_from(["canonical", "duplicate", "self-loop", "reversed",
                                  "unsorted", "out of range", "empty"]))
    at = draw(st.integers(0, len(edges)))
    if shape == "empty":
        edges = []
    elif shape == "duplicate" and edges:
        u, v = edges[draw(st.integers(0, len(edges) - 1))]
        edges.insert(at, draw(st.sampled_from([[u, v], [v, u]])))
    elif shape == "self-loop":
        v = draw(st.integers(0, n - 1))
        edges.insert(at, [v, v])
    elif shape == "reversed" and edges:
        edges[at % len(edges)].reverse()
    elif shape == "unsorted":
        edges = draw(st.permutations(edges))
        edges = [pair[::-1] if draw(st.booleans()) else pair for pair in edges]
    elif shape == "out of range":
        bad = draw(st.sampled_from([-1, n]))
        edges.insert(at, draw(st.sampled_from([[bad, 0], [0, bad], [1, bad]])))
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2)


class TestCanonicalEdges:
    """``Graph`` keeps an already canonical edge list as it is and takes any
    other through the checks and sort it always made."""

    @given(case=edge_lists())
    @example(case=(3, np.empty((0, 2), dtype=np.int64)))
    @example(case=(3, np.array([[0, 1], [0, 1]])))
    @example(case=(3, np.array([[0, 1], [1, 0]])))
    @example(case=(3, np.array([[0, 2], [0, 1]])))
    @example(case=(3, np.array([[1, 1], [0, 3]])))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_sorting_path(self, case):
        n, edges = case
        try:
            expected = reference_graph_edges(n, edges.copy())
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                Graph(n, edges, np.zeros((n, 1)))
            assert str(raised.value) == str(error)
            return
        graph = Graph(n, edges, np.zeros((n, 1)))
        assert graph.edges.dtype == np.int64 and graph.edges.shape == expected[0].shape
        assert graph.edges.tobytes() == expected[0].tobytes()
        assert graph.degrees.tobytes() == expected[1].tobytes()

    def test_a_canonical_list_is_kept_as_it_is(self):
        graph, _ = generate_sbm(60, 3, 0.3, 0.05, 3, seed=11)
        kept = graph.edges.compress(np.arange(graph.num_edges) % 3 > 0, axis=0)
        assert Graph(graph.n, kept, graph.features).edges is kept
        assert not kept.flags.writeable
        reversed_pairs = np.ascontiguousarray(kept[:, ::-1])
        assert Graph(graph.n, reversed_pairs, graph.features).edges.tobytes() == (
            kept.tobytes())


NOT_INTEGERS = {"fraction": 1.7, "nan": np.nan, "inf": np.inf, "-inf": -np.inf}


class TestIntegerInput:
    """Endpoints, labels and pairs that are not integers are refused, never
    truncated."""

    @pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
    def test_edge_endpoint(self, value):
        with pytest.raises(ValueError, match="^edge endpoints must be integers$"):
            Graph(3, [[0, value]], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="^edge endpoints must be integers$"):
            Graph(3, [[0.5, 1.7]], np.zeros((3, 2)))

    @pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
    def test_label(self, value):
        with pytest.raises(ValueError, match="^labels must be integers$"):
            Graph(3, [[0, 1]], np.zeros((3, 2)), labels=[0, value, 1])
        with pytest.raises(ValueError, match="^labels must be integers$"):
            Graph(3, [[0, 1]], np.zeros((3, 2)), labels=[0.9, 1.2, -0.5])

    @pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
    def test_pair(self, value):
        with pytest.raises(ValueError, match="^pairs must be integers$"):
            InteractionMatrix(users=2, items=3, pairs=[[1, value]])
        with pytest.raises(ValueError, match="^pairs must be integers$"):
            InteractionMatrix(users=2, items=3, pairs=[[0.6, 2.9]])

    def test_booleans(self):
        with pytest.raises(ValueError, match="^edge endpoints must be integers$"):
            Graph(3, np.array([[True, False]]), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="^labels must be integers$"):
            Graph(2, [], np.zeros((2, 2)), labels=[True, False])
        with pytest.raises(ValueError, match="^pairs must be integers$"):
            InteractionMatrix(users=2, items=3, pairs=[[False, True]])

    def test_other_types(self):
        for edges in ([[0, 1 + 0j]], [["0", "1"]], [[0, None]],
                      np.array([[0, "a"]], dtype=object)):
            with pytest.raises(ValueError, match="^edge endpoints must be integers$"):
                Graph(3, edges, np.zeros((3, 2)))

    def test_integers_outside_int64(self):
        with pytest.raises(ValueError, match="^edge endpoints must be integers$"):
            Graph(3, np.array([[0, 2**64 - 1]], dtype=np.uint64), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="^labels must be integers$"):
            Graph(2, [], np.zeros((2, 2)), labels=np.array([0, 2.0**63]))
        # Python integers past int64 make an object array.
        for big in (2**70, 10**20, -2**70):
            with pytest.raises(ValueError, match="^edge endpoints must be integers$"):
                Graph(3, [[0, big]], np.zeros((3, 1)))
            with pytest.raises(ValueError, match="^labels must be integers$"):
                Graph(3, [], np.zeros((3, 1)), labels=[0, big, 1])
            with pytest.raises(ValueError, match="^pairs must be integers$"):
                InteractionMatrix(users=2, items=3, pairs=[[1, big]])

    def test_integer_valued_input_is_read_as_before(self):
        g = Graph(3, np.array([[2.0, 0.0]]), np.zeros((3, 2)),
                  labels=np.array([0, 1, -1], dtype=np.int8))
        assert g.edges.tolist() == [[0, 2]] and g.edges.dtype == np.int64
        assert g.labels.tolist() == [0, 1, -1] and g.labels.dtype == np.int64
        m = InteractionMatrix(users=2, items=3,
                              pairs=np.array([[1, 2], [0, 1]], dtype=np.uint32))
        assert m.pairs.tolist() == [[0, 1], [1, 2]] and m.pairs.dtype == np.int64
        assert Graph(2, (), np.zeros((2, 1))).edges.shape == (0, 2)

    def test_int64_input_is_not_copied(self):
        # The sampler's int64 edges and labels pay no element-wise check.
        values = np.arange(6, dtype=np.int64).reshape(3, 2)
        assert graph_module._integers(values, "edge endpoints") is values


class TestNodeClassificationLoader:
    NODES = "node_id,label,f_1\n0,0,1.0\n1,1,2.0\n"

    def test_single_edge(self, tmp_path):
        paths = write_dataset(tmp_path, "0\t1\n", self.NODES)
        g = load_node_classification_dataset(*paths)
        assert g.n == 2 and g.num_edges == 1
        assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
        assert list(g.labels) == [0, 1]

    def test_empty_edge_file(self, tmp_path):
        nodes = "node_id,label,f_1\n0,0,1.0\n1,1,2.0\n2,,3.0\n"
        paths = write_dataset(tmp_path, "", nodes)
        g = load_node_classification_dataset(*paths)
        assert g.n == 3 and g.num_edges == 0
        assert g.labels[2] == -1  # empty label cell means unlabeled

    def test_malformed_edge_line_reports_line_number(self, tmp_path):
        paths = write_dataset(tmp_path, "0\t1\nbogus line\n", self.NODES)
        with pytest.raises(ParseError, match="edges.tsv:2"):
            load_node_classification_dataset(*paths)

    def test_out_of_range_endpoint(self, tmp_path):
        paths = write_dataset(tmp_path, "0\t7\n", self.NODES)
        with pytest.raises(ParseError, match="out of range"):
            load_node_classification_dataset(*paths)

    def test_self_loop_rejected(self, tmp_path):
        paths = write_dataset(tmp_path, "1\t1\n", self.NODES)
        with pytest.raises(ParseError, match="self-loop"):
            load_node_classification_dataset(*paths)

    def test_duplicate_edge_rejected_in_both_orientations(self, tmp_path):
        paths = write_dataset(tmp_path, "0\t1\n1\t0\n", self.NODES)
        with pytest.raises(ParseError, match="duplicate edge"):
            load_node_classification_dataset(*paths)

    def test_duplicate_node_id(self, tmp_path):
        nodes = "node_id,label,f_1\n0,0,1.0\n0,1,2.0\n"
        paths = write_dataset(tmp_path, "", nodes)
        with pytest.raises(ParseError, match="duplicate node id"):
            load_node_classification_dataset(*paths)

    def test_ids_in_any_order_load(self, tmp_path):
        nodes = "node_id,label,f_1\n1,1,2.0\n0,0,1.0\n"
        graph = load_node_classification_dataset(
            *write_dataset(tmp_path, "0\t1\n", nodes))
        assert graph.labels.tolist() == [0, 1]
        assert graph.features.ravel().tolist() == [1.0, 2.0]

    def test_gap_in_node_ids_names_its_line(self, tmp_path):
        nodes = "node_id,label,f_1\n0,0,1.0\n2,1,2.0\n"
        paths = write_dataset(tmp_path, "", nodes)
        with pytest.raises(ParseError, match=r"nodes\.csv:3: node id 2 outside "
                                             r"\[0, 2\) \(2 node rows\)"):
            load_node_classification_dataset(*paths)

    @pytest.mark.parametrize("row, message", [
        ("10000000000,0,3.0", r"node id 10000000000 outside \[0, 3\)"),
        ("12345678901234567890,0,3.0", r"node id 12345678901234567890 outside"),
        ("-1,0,3.0", r"node id -1 outside \[0, 3\)"),
        ("2,10000000,3.0", r"label 10000000 outside \[-1, 3\)"),
        ("2,12345678901234567890,3.0", r"label 12345678901234567890 outside"),
        ("2,3,3.0", r"label 3 outside \[-1, 3\)"),
        ("2,-2,3.0", r"label -2 outside \[-1, 3\)")])
    def test_id_or_label_out_of_range_is_refused(self, tmp_path, row, message):
        # Three rows: ids lie in [0, 3) and labels in [-1, 3). The first bad
        # row is named in file order, and no array is sized by its value.
        nodes = f"node_id,label,f_1\n0,0,1.0\n{row}\n1,9,2.0\n"
        paths = write_dataset(tmp_path, "", nodes)
        with pytest.raises(ParseError, match=rf"nodes\.csv:3: {message}"):
            load_node_classification_dataset(*paths)

    @pytest.mark.parametrize("blank", ["\n", "   \n", "\t\n"],
                             ids=["empty", "spaces", "tab"])
    def test_blank_node_lines_are_skipped(self, tmp_path, blank):
        nodes = f"node_id,label,f_1\n0,0,1.0\n{blank}1,1,2.0\n{blank}"
        paths = write_dataset(tmp_path, "0\t1\n\n", nodes)
        graph = load_node_classification_dataset(*paths)
        assert graph.n == 2 and graph.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity",
                                      "1e309"])
    def test_non_finite_feature_names_its_line(self, tmp_path, cell):
        nodes = f"node_id,label,f_1,f_2\n0,0,1.0,2.0\n1,1,{cell},0.5\n"
        paths = write_dataset(tmp_path, "0\t1\n", nodes)
        with pytest.raises(ParseError, match=r"nodes\.csv:3: non-finite feature"):
            load_node_classification_dataset(*paths)

    def test_largest_finite_features_load(self, tmp_path):
        nodes = "node_id,label,f_1,f_2\n0,0,1e308,-1e308\n1,1,0.5,0.5\n"
        graph = load_node_classification_dataset(
            *write_dataset(tmp_path, "0\t1\n", nodes))
        assert graph.features[0].tolist() == [1e308, -1e308]

    def test_round_trip(self, tmp_path):
        graph, _ = generate_sbm(30, 3, 0.4, 0.1, 5, seed=3)
        edge_path = tmp_path / "e.tsv"
        node_path = tmp_path / "n.csv"
        save_node_classification_dataset(graph, edge_path, node_path)
        reloaded = load_node_classification_dataset(edge_path, node_path)
        assert reloaded == graph


@pytest.mark.skipif("SMOOTHCERT_CORA_EDGES" not in os.environ,
                    reason="reference dataset files not available")
def test_reference_citation_dataset():
    g = load_node_classification_dataset(os.environ["SMOOTHCERT_CORA_EDGES"],
                                         os.environ["SMOOTHCERT_CORA_NODES"])
    assert g.n == 2995
    assert g.num_edges == 8416
    assert g.num_classes == 7
    assert abs(g.degrees.mean() - 5.68) <= 0.01


class TestInteractionLoader:
    def test_hand_enumerated_split(self, tmp_path):
        # Two users; user 7 has 4 records, user 9 has 3. With fraction 0.5 the
        # earliest floor(0.5 * n) records per user (timestamp, then item id)
        # are training: user 7 keeps items (30, 10), user 9 keeps item 50.
        lines = [
            "7\t10\t5\t200",
            "7\t20\t3\t300",
            "7\t30\t4\t100",
            "7\t40\t1\t400",
            "9\t50\t2\t10",
            "9\t60\t2\t20",
            "9\t70\t2\t30",
        ]
        path = tmp_path / "u.data"
        path.write_text("\n".join(lines) + "\n")
        matrix, held = load_interaction_dataset(path, 0.5)
        assert matrix.users == 2 and matrix.items == 7
        # dense item ids follow sorted original ids: 10->0, 20->1, ..., 70->6
        assert set(map(tuple, matrix.pairs.tolist())) == {(0, 0), (0, 2), (1, 4)}
        assert held[0].tolist() == [1, 3]
        assert held[1].tolist() == [5, 6]

    def test_single_record_user_goes_to_training(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t5\t4\t100\n")
        matrix, held = load_interaction_dataset(path, 0.85)
        assert matrix.nnz == 1
        assert held[0].size == 0

    def test_ties_break_by_item_id(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t9\t4\t100\n1\t2\t4\t100\n")
        matrix, held = load_interaction_dataset(path, 0.5)
        # same timestamp: item 2 sorts first and lands in training
        assert matrix.pairs.tolist() == [[0, 0]]
        assert held[0].tolist() == [1]

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t2\t3\n")
        with pytest.raises(ParseError, match="u.data:1"):
            load_interaction_dataset(path, 0.85)

    def test_duplicate_interaction_reports_first_repeat(self, tmp_path):
        # (1, 5) and (2, 6) both repeat; the repeat of (1, 5) comes first.
        pairs = [(1, 5), (2, 6), (2, 5), (1, 5), (2, 6)]
        path = tmp_path / "dup.tsv"
        path.write_text("".join(f"{u}\t{i}\t4\t{10 + t}\n"
                                for t, (u, i) in enumerate(pairs)))
        with pytest.raises(ParseError) as info:
            load_interaction_dataset(path, 0.5)
        assert str(info.value) == (f"{path}:4: duplicate interaction "
                                   "user=1 item=5 (first at line 1)")
        assert info.value.line_no == 4 and type(info.value.line_no) is int

    @pytest.mark.parametrize("field, record", [
        ("user", "9223372036854775808\t2\t4\t100"),
        ("user", "-9223372036854775809\t2\t4\t100"),
        ("item", "1\t9223372036854775808\t4\t100"),
        ("timestamp", "1\t2\t4\t99999999999999999999")])
    def test_field_outside_int64_names_its_line(self, tmp_path, field, record):
        path = tmp_path / "big.tsv"
        path.write_text(f"1\t1\t4\t5\n{record}\n")
        with pytest.raises(ParseError, match=f"big.tsv:2: {field} ") as info:
            load_interaction_dataset(path, 0.5)
        assert info.value.line_no == 2

    def test_empty_log(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("\n\n")
        matrix, held = load_interaction_dataset(path, 0.85)
        assert (matrix.users, matrix.items, matrix.nnz) == (0, 0, 0)
        assert held == []

    @pytest.mark.parametrize("fraction", [0.3, 0.5, 0.85, 1.0])
    def test_matches_per_user_reference(self, tmp_path, fraction):
        # Sparse and negative ids, and many tied timestamps.
        rng = np.random.default_rng(int(fraction * 100))
        keys = rng.choice(12 * 15, size=90, replace=False)
        records = [(int(k // 15) * 3 - 5, int(k % 15) * 7, int(rng.integers(6)))
                   for k in keys]
        path = tmp_path / "u.data"
        path.write_text("".join(f"{u}\t{i}\t1\t{ts}\n" for u, i, ts in records))
        matrix, held = load_interaction_dataset(path, fraction)
        train, expected_held = reference_ratings_split(records, fraction)
        assert matrix.pairs.tolist() == train
        assert [h.tolist() for h in held] == expected_held

    def test_bad_fraction(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t2\t3\t4\n")
        with pytest.raises(ValueError, match="split_fraction"):
            load_interaction_dataset(path, 0.0)


@pytest.mark.skipif("SMOOTHCERT_ML100K" not in os.environ,
                    reason="reference dataset files not available")
def test_reference_ratings_dataset():
    matrix, held = load_interaction_dataset(os.environ["SMOOTHCERT_ML100K"], 0.85)
    assert matrix.users == 943
    assert matrix.items == 1682
    assert matrix.nnz + sum(len(h) for h in held) == 100_000


# Cells that int() or float() may read differently from numpy's text reader:
# signs, padding, digit separators, comment marks, non-finite ratings,
# overflow, and non-ASCII or separator characters that numpy's reader alone
# takes for digits or whitespace.
ODD_CELLS = ["+5", " 5 ", "1_0", "#5", "nan", "inf", "-inf", "x", "", "5.0",
             "1e3", "-0", "9223372036854775807", "9223372036854775808",
             "-9223372036854775809", "99999999999999999999", "\u01fe5",
             "\x1c5", "5\x1f", "\xa05", "\u0665", "5\x0c"]
# Whole-line changes: blank and whitespace-only lines, a line of 1, 3 or 5
# fields and a trailing separator.
ODD_LINES = ["", "   ", "\t", " \t \t ", "7", "1\t2\t3", "1\t2\t3\t4\t5",
             "1\t2\t3\t4\t"]
# Node-table cells besides those: quotes, ids and labels just outside their
# range, and a feature that overflows to inf.
ODD_NODE_CELLS = ODD_CELLS + ['"1"', '"', "6", "-1", "-2", "1e999"]


def odd_file(rng, lines, sep="\t", cells=ODD_CELLS):
    """The text of ``lines`` (each a list of cells, joined by ``sep``) after
    one to three seeded changes, with seeded line ends, final newline and
    BOM."""
    lines = [list(line) for line in lines]
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(lines) + 1))
        change = rng.integers(0, 4)
        if change == 0 and lines:  # one odd cell
            row = lines[min(at, len(lines) - 1)]
            row[int(rng.integers(0, len(row)))] = str(rng.choice(cells))
        elif change == 1:  # one odd line
            lines.insert(at, str(rng.choice(ODD_LINES)).split("\t"))
        elif change == 2 and lines:  # a repeat, after a blank line
            lines[at:at] = [[""], list(lines[int(rng.integers(0, len(lines)))])]
        elif lines:  # a row with the same value in its first two cells
            row = lines[min(at, len(lines) - 1)]
            row[1:2] = row[:1]
    end = str(rng.choice(["\n", "\r\n", "\r"]))
    text = end.join(sep.join(line) for line in lines)
    if lines and rng.random() < 0.7:
        text += end
    return ("\ufeff" if rng.random() < 0.1 else "") + text


def load_both_ways(monkeypatch, load, path):
    """``load(path)`` with the whole-file reader and with the per-line
    parser alone: each its result or its ParseError."""
    outcomes = []
    for whole_file in (True, False):
        with monkeypatch.context() as patch:
            if not whole_file:
                patch.setattr(graph_module, "_read_columns", lambda *a, **k: None)
            try:
                outcomes.append(load(path))
            except ParseError as exc:
                outcomes.append((str(exc), exc.line_no))
    return outcomes


class TestWholeFileReader:
    """The whole-file parse against the per-line parser on a seeded corpus."""

    @staticmethod
    def count_fast_parses(monkeypatch, name="_read_columns"):
        parsed = []
        read = getattr(graph_module, name)

        def counted(*args, **kwargs):
            table = read(*args, **kwargs)
            parsed.append(table is not None)
            return table
        monkeypatch.setattr(graph_module, name, counted)
        return parsed

    def test_rating_logs_match_the_per_line_parser(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(19)
        parsed = self.count_fast_parses(monkeypatch)
        path = tmp_path / "ratings.tsv"

        def load(p):
            matrix, held = load_interaction_dataset(p, 0.5)
            return matrix.pairs.tolist(), matrix.users, matrix.items, \
                [h.tolist() for h in held]
        failures = []
        for case in range(300):
            keys = rng.choice(24, size=int(rng.integers(0, 9)), replace=False)
            lines = [[str(k // 6 + 1), str(k % 6 + 10), str(rng.integers(1, 6)),
                      str(rng.integers(100, 104))] for k in keys]
            text = odd_file(rng, lines) if case % 10 else "\n".join(
                "\t".join(line) for line in lines)
            path.write_text(text, encoding="utf-8", newline="")
            fast, slow = load_both_ways(monkeypatch, load, path)
            if fast != slow:
                failures.append((text, fast, slow))
        assert failures == []
        # Both readers were exercised: some files parse whole, some not.
        assert 40 <= sum(parsed) <= len(parsed) - 100

    def test_edge_lists_match_the_per_line_parser(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(20)
        parsed = self.count_fast_parses(monkeypatch)
        edges = tmp_path / "edges.tsv"
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("node_id,label,f_1\n"
                         + "".join(f"{v},{v % 2},0.5\n" for v in range(6)))

        def load(p):
            graph = load_node_classification_dataset(p, nodes)
            return graph.edges.tolist(), graph.degrees.tolist()
        failures = []
        for case in range(300):
            pairs = np.argwhere(np.triu(rng.random((6, 6)) < 0.3, k=1))
            lines = [[str(u), str(v)] if rng.random() < 0.5 else [str(v), str(u)]
                     for u, v in pairs]
            text = odd_file(rng, lines) if case % 10 else "\n".join(
                "\t".join(line) for line in lines)
            edges.write_text(text, encoding="utf-8", newline="")
            fast, slow = load_both_ways(monkeypatch, load, edges)
            if fast != slow:
                failures.append((text, fast, slow))
        assert failures == []
        assert 40 <= sum(parsed) <= len(parsed) - 100

    def test_node_tables_match_the_per_line_parser(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(21)
        parsed = self.count_fast_parses(monkeypatch, "_read_node_table")
        edges = tmp_path / "edges.tsv"
        nodes = tmp_path / "nodes.csv"
        edges.write_text("0\t1\n")

        def load(p):
            graph = load_node_classification_dataset(edges, p)
            return graph.fingerprint(), graph.num_classes
        failures = []
        for case in range(300):
            ids = rng.permutation(6) if rng.random() < 0.3 else np.arange(6)
            lines = [["node_id", "label", "f_1", "f_2"]] + [
                [str(v), str(rng.integers(0, 3)), str(round(rng.normal(), 3)),
                 str(rng.integers(-2, 3))] for v in ids]
            text = odd_file(rng, lines, ",", ODD_NODE_CELLS) if case % 10 else \
                "\n".join(",".join(line) for line in lines)
            nodes.write_text(text, encoding="utf-8", newline="")
            fast, slow = load_both_ways(monkeypatch, load, nodes)
            if fast != slow:
                failures.append((text, fast, slow))
        assert failures == []
        assert 40 <= sum(parsed) <= len(parsed) - 100

    @pytest.mark.parametrize("delimiter", ["\t", ","])
    @pytest.mark.parametrize("dtype, convert", [(np.int64, int),
                                                (np.float64, float)])
    def test_ascii_cells_read_as_int_and_float_read_them(self, dtype, convert,
                                                          delimiter):
        # The whole-file parse is exact only while numpy's reader takes no
        # ASCII cell that int() or float() refuses or reads otherwise. The
        # node table's comma delimiter lets a tab into its cells.
        chars = [chr(c) for c in range(128) if chr(c) not in delimiter + "\n\r"]
        cells = [a + b for a in chars for b in chars]
        cells += [a + "5" + b for a in chars for b in chars]
        read = 0
        for cell in cells:
            table = graph_module._read_columns(cell.encode() + b"\n", dtype, 1,
                                               delimiter=delimiter)
            if table is not None:
                expected = np.array([convert(cell)], dtype=dtype)
                assert np.array_equal(table, expected, equal_nan=True), cell
                assert np.signbit(table) == np.signbit(expected), cell
                read += 1
        assert read > 100

    @pytest.mark.parametrize("text, line_no", [
        ("1\t5\t4\t10\n\n2\t5\t4\t11\n\n   \n1\t5\t3\t12\n", 6),
        ("\r\n1\t5\t4\t10\r\n1\t5\t3\t12", 3)])
    def test_a_repeat_found_whole_is_named_by_its_line(self, tmp_path, text,
                                                         line_no):
        path = tmp_path / "dup.tsv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ParseError, match="duplicate interaction user=1 item=5") \
                as info:
            load_interaction_dataset(path, 0.5)
        assert info.value.line_no == line_no

    def test_a_clean_benchmark_sized_log_is_parsed_whole(self, tmp_path,
                                                         monkeypatch):
        # 943 users, 1682 items and 100 000 ratings, as in MovieLens-100k.
        rng = np.random.default_rng(100)
        keys = rng.choice(943 * 1682, size=100_000, replace=False)
        keys[:943] = np.arange(943) * 1682 + rng.integers(0, 1682, size=943)
        keys[943:943 + 1682] = rng.integers(0, 943, size=1682) * 1682 + np.arange(1682)
        keys = np.unique(keys)
        stars = rng.integers(1, 6, size=keys.size)
        stamps = 874_724_710 + rng.integers(0, 10**7, size=keys.size)
        path = tmp_path / "u.data"
        path.write_text("".join(f"{k // 1682 + 1}\t{k % 1682 + 1}\t{s}\t{t}\n"
                                for k, s, t in zip(keys.tolist(), stars.tolist(),
                                                   stamps.tolist())))
        per_line = []
        for name in ("_parse_rating_lines", "_parse_edge_lines", "_parse_node_rows"):
            parse = getattr(graph_module, name)
            monkeypatch.setattr(graph_module, name, lambda *a, name=name, parse=parse:
                                per_line.append(name) or parse(*a))
        matrix, held = load_interaction_dataset(path, 0.85)
        assert (matrix.users, matrix.items) == (943, 1682)
        assert matrix.nnz + sum(h.size for h in held) == keys.size
        # The evasion-large graph: 3000 nodes and 8 features.
        graph, _ = generate_sbm(3000, 2, 0.01, 0.001, 8, seed=1)
        save_node_classification_dataset(graph, tmp_path / "e.tsv",
                                         tmp_path / "n.csv")
        assert load_node_classification_dataset(tmp_path / "e.tsv",
                                                tmp_path / "n.csv") == graph
        assert per_line == []

    def test_a_wide_node_table_loads_in_under_twice_its_size(self, tmp_path):
        # 2000 nodes of 256 features, about 10 MB of text. The arrays it
        # fills are 4 MB; the file's text is never held as a string.
        rng = np.random.default_rng(256)
        graph = Graph(2000, [(0, 1)], rng.standard_normal((2000, 256)),
                      rng.integers(0, 5, size=2000))
        edges, nodes = tmp_path / "edges.tsv", tmp_path / "nodes.csv"
        save_node_classification_dataset(graph, edges, nodes)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            loaded = load_node_classification_dataset(edges, nodes)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert loaded == graph
        assert peak < 2 * nodes.stat().st_size, (peak, nodes.stat().st_size)


class TestGenerateSbm:
    @pytest.mark.parametrize("pair_block", [None, 1, 100])
    @pytest.mark.parametrize("n, classes, p_in, p_out, seed", [
        (7, 7, 0.5, 0.2, 0), (300, 2, 0.1, 0.01, 0), (1001, 7, 0.05, 0.01, 3),
        (3000, 2, 0.01, 0.001, 5)])
    def test_row_blocks_draw_the_edges_all_pairs_draw(self, monkeypatch, n,
                                                      classes, p_in, p_out,
                                                      seed, pair_block):
        # 2**20 pairs a block puts 3000 nodes in 9 blocks and 1001 in one.
        # 1 pair a block puts every size over block boundaries, and 100 pairs
        # every size but 7.
        if pair_block is not None:
            monkeypatch.setattr(graph_module, "_PAIR_BLOCK", pair_block)
        graph, _ = generate_sbm(n, classes, p_in, p_out, classes, seed=seed)
        assert graph.edges.tobytes() == \
            reference_sbm_edges(n, classes, p_in, p_out, seed).tobytes()

    def test_cliques_when_forced(self):
        graph, _ = generate_sbm(4, 2, 1.0, 0.0, 2, seed=0)
        assert sorted(map(tuple, graph.edges.tolist())) == [(0, 1), (2, 3)]
        assert list(graph.labels) == [0, 0, 1, 1]

    @pytest.mark.parametrize("n", [-1, -4])
    def test_negative_n_is_refused(self, n):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            generate_sbm(n, 2, 0.2, 0.02, 4, seed=0)

    def test_same_seed_identical(self):
        a, sa = generate_sbm(60, 2, 0.2, 0.02, 4, seed=5)
        b, sb = generate_sbm(60, 2, 0.2, 0.02, 4, seed=5)
        assert a == b
        assert np.array_equal(sa.train, sb.train)
        assert np.array_equal(sa.test, sb.test)

    def test_different_seed_differs(self):
        a, _ = generate_sbm(60, 2, 0.2, 0.02, 4, seed=5)
        b, _ = generate_sbm(60, 2, 0.2, 0.02, 4, seed=6)
        assert a != b

    def test_edge_count_matches_binomial_expectation(self):
        n, classes, p_in, p_out = 300, 2, 0.1, 0.01
        graph, _ = generate_sbm(n, classes, p_in, p_out, 3, seed=13)
        block = n // classes
        within = classes * block * (block - 1) // 2
        between = n * (n - 1) // 2 - within
        mean = within * p_in + between * p_out
        var = within * p_in * (1 - p_in) + between * p_out * (1 - p_out)
        assert abs(graph.num_edges - mean) <= 4 * math.sqrt(var)

    def test_split_sizes(self):
        _, split = generate_sbm(100, 2, 0.2, 0.02, 4, seed=1)
        assert len(split.train) == 20
        assert len(split.validation) == 10
        assert len(split.test) == 70

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_sbm(10, 2, 0.1, 0.5, 2, seed=0)  # p_out > p_in
        with pytest.raises(ValueError):
            generate_sbm(9, 2, 0.5, 0.1, 2, seed=0)  # not divisible
        with pytest.raises(ValueError):
            generate_sbm(10, 2, 0.5, 0.1, 1, seed=0)  # d < classes


class TestSplits:
    def test_fingerprint_tracks_each_set(self):
        split = DataSplit(train=[0, 1], validation=[2], test=[3, 4])
        assert split.fingerprint() == DataSplit([1, 0], [2], [4, 3]).fingerprint()
        for other in (DataSplit([0], [1, 2], [3, 4]), DataSplit([0, 1], [2], [3]),
                      DataSplit([0, 1], [2, 3], [4])):
            assert other.fingerprint() != split.fingerprint()

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="disjoint"):
            DataSplit(train=[0, 1], validation=[1], test=[2])

    def test_seeded_split_covers_labeled_nodes(self):
        graph, _ = generate_sbm(80, 2, 0.3, 0.05, 4, seed=2)
        split = seeded_split(graph, 9)
        merged = np.concatenate([split.train, split.validation, split.test])
        assert sorted(merged.tolist()) == list(range(80))
        again = seeded_split(graph, 9)
        assert np.array_equal(split.test, again.test)

    @pytest.mark.parametrize("labels", [[-1, -1, -1, -1], [0, 1, -1, -1]],
                             ids=["unlabeled", "two-labeled"])
    def test_seeded_split_needs_a_test_node(self, labels):
        # One training and one validation node at least, so two labeled
        # nodes leave none to test on.
        graph = Graph(4, [(0, 1)], np.zeros((4, 2)), labels, num_classes=2)
        with pytest.raises(ValueError, match="too few labeled nodes"):
            seeded_split(graph, 0)


class TestTimeOrder:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_lexsort_on_logs_heavy_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        users, items = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        keys = np.unique(rng.integers(0, users * items, int(rng.integers(0, 200))))
        keys = rng.permutation(keys)  # distinct (user, item) pairs, any order
        u, i = keys // items, keys % items
        # Few distinct timestamps, some far apart: most records tie.
        ts = rng.choice([0, 1, 7, 2**40, -3], size=keys.size,
                        p=[0.4, 0.3, 0.1, 0.1, 0.1]) * int(rng.integers(1, 5))
        order = np.argsort(keys, kind="stable")
        got = graph_module._by_user_and_time(u, ts, order)
        assert got.tobytes() == np.lexsort((i, ts, u)).tobytes()


class TestContainerSizes:
    """Node, user and item counts are single non-negative integers, under
    the rule that endpoints, labels and pairs follow."""

    @pytest.mark.parametrize("count", [2.5, np.nan, True, "2", [2]],
                             ids=["fraction", "nan", "bool", "str", "list"])
    def test_counts_that_are_not_one_integer(self, count):
        with pytest.raises(ValueError, match="^node count must be integers$"):
            Graph(count, [], np.zeros((2, 1)))
        with pytest.raises(ValueError, match="^user count must be integers$"):
            InteractionMatrix(count, 3, [])
        with pytest.raises(ValueError, match="^item count must be integers$"):
            InteractionMatrix(3, count, [(0, 1)])

    def test_negative_counts(self):
        with pytest.raises(ValueError, match="^node count must be non-negative$"):
            Graph(-1, [], np.zeros((0, 1)))
        with pytest.raises(ValueError, match="^user count must be non-negative$"):
            InteractionMatrix(-1, 3, [])
        with pytest.raises(ValueError, match="^item count must be non-negative$"):
            InteractionMatrix(3, -5, [])

    def test_integer_valued_counts_are_stored_as_int(self):
        m = InteractionMatrix(np.int32(3), 2.0, [(0, 1)])
        assert (m.users, m.items) == (3, 2)
        assert type(m.users) is int and type(m.items) is int
        g = Graph(np.int64(2), [], np.zeros((2, 1)))
        assert g.n == 2 and type(g.n) is int


class TestInteractionMatrix:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            InteractionMatrix(users=2, items=2, pairs=[(0, 1), (0, 1)])

    def test_shuffled_pairs_are_sorted_by_user_then_item(self):
        rng = np.random.default_rng(4)
        for users, items in ((1, 1), (5, 3), (40, 70)):
            keys = rng.choice(users * items, size=(users * items + 1) // 2,
                              replace=False)
            pairs = np.stack(np.divmod(keys, items), axis=1)
            expected = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            m = InteractionMatrix(users=users, items=items, pairs=pairs)
            assert np.array_equal(m.pairs, expected)
            assert np.array_equal(InteractionMatrix(users, items, expected).pairs,
                                  expected)

    def test_duplicate_pair_rejected_in_either_order(self):
        for pairs in ([(0, 1), (1, 0), (0, 1)], [(1, 0), (0, 1), (0, 1)],
                      [(0, 0), (0, 1), (0, 1), (1, 1)]):
            with pytest.raises(ValueError, match=r"duplicate \(user, item\) pair"):
                InteractionMatrix(users=2, items=2, pairs=pairs)

    def test_fingerprint_tracks_shape_and_pairs(self):
        m = InteractionMatrix(users=2, items=3, pairs=[(0, 2), (1, 0)])
        shuffled = InteractionMatrix(2, 3, [(1, 0), (0, 2)])
        assert m.fingerprint() == shuffled.fingerprint()
        for other in (InteractionMatrix(2, 4, [(0, 2), (1, 0)]),
                      InteractionMatrix(3, 3, [(0, 2), (1, 0)]),
                      InteractionMatrix(2, 3, [(0, 2), (1, 1)])):
            assert other.fingerprint() != m.fingerprint()

    def test_items_of(self):
        m = InteractionMatrix(users=2, items=4, pairs=[(0, 2), (0, 1), (1, 3)])
        assert m.items_of(0).tolist() == [1, 2]
        assert m.items_of(1).tolist() == [3]
        assert m.user_degrees.tolist() == [2, 1]

    @pytest.mark.parametrize("users, items, pairs", [
        (0, 0, []), (3, 2, []), (3, 4, [(0, 2), (0, 1), (2, 3)])])
    def test_user_degrees_are_stored_once(self, users, items, pairs):
        m = InteractionMatrix(users, items, pairs)
        assert "user_degrees" in vars(m) and m.user_degrees is m.user_degrees
        assert m.user_degrees.dtype == np.int64
        assert not m.user_degrees.flags.writeable
        assert m.user_degrees.shape == (users,)
        assert np.array_equal(m.user_degrees,
                              np.bincount(m.pairs[:, 0], minlength=users))

    def test_items_of_is_the_users_run_of_the_sorted_pairs(self):
        rng = np.random.default_rng(9)
        for trial in range(12):
            users, items = rng.integers(1, 30), rng.integers(1, 30)
            keys = rng.choice(users * items, size=rng.integers(users * items + 1),
                              replace=False)
            # A third of the users rate nothing, the last one in every other trial.
            empty = rng.choice(users, size=users // 3)
            if trial % 2:
                empty = np.append(empty, users - 1)
            keys = keys[~np.isin(keys // items, empty)]
            m = InteractionMatrix(users, items,
                                  np.stack(np.divmod(keys, items), axis=1))
            # The row pointers the matrix kept before it stored its degrees.
            indptr = np.concatenate(
                [[0], np.cumsum(np.bincount(m.pairs[:, 0], minlength=users))])
            for u in range(users):
                run = m.pairs[indptr[u]:indptr[u + 1], 1]
                assert m.items_of(u).tolist() == run.tolist()
            assert all(m.items_of(u).size == 0 for u in empty)
        for user in (-1, 2):
            with pytest.raises(ValueError, match=f"^user index {user} out of range$"):
                InteractionMatrix(2, 2, [(1, 1)]).items_of(user)
