"""Graph and rating-matrix data model, dataset ingestion, and synthetic fixtures.

All container types are immutable after construction (their numpy buffers are
marked read-only) and safe to share across threads.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import warnings
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """A dataset file violates the documented format."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` marked read-only. A view is copied first, since the array that
    owns its memory could still be written."""
    if arr.base is not None:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an int64 array. Raises ``ValueError`` naming ``what`` if
    a value is not an integer: a bool, a float with a fraction, NaN or inf,
    or an integer outside int64. Costs nothing on an int64 array."""
    array = np.asarray(values)
    if array.dtype == np.int64:
        return array
    if array.dtype.kind in "iufO":
        # NaN and inf fail the comparison; an object array of Python ints
        # past int64, or of other objects, fails the conversion.
        with np.errstate(invalid="ignore"), suppress(OverflowError, TypeError, ValueError):
            ints = array.astype(np.int64)
            if np.all(ints == array):
                return ints
    raise ValueError(f"{what} must be integers")


def _canonical_pairs(rows: np.ndarray, cols: np.ndarray, width: int, pairs=None):
    """Sort (row, col) pairs, ``0 <= col < width``, and find a repeated one.

    ``row * width + col`` orders the pairs by row, then column. Strictly
    increasing keys are already canonical and duplicate-free, as in any
    subset of a canonical list, so only other inputs are sorted, and such a
    list is returned as ``pairs`` itself, the ``(m, 2)`` array whose columns
    are ``rows`` and ``cols``, when the caller holds one. Returns the sorted
    ``(m, 2)`` pairs and the first repeated pair, or None.
    """
    keys = rows * width + cols
    if (keys[1:] > keys[:-1]).all():
        return (np.stack([rows, cols], axis=1) if pairs is None else pairs), None
    keys = np.sort(keys)
    dup = keys[1:][keys[1:] == keys[:-1]]
    return (np.stack(np.divmod(keys, width), axis=1),
            divmod(int(dup[0]), width) if dup.size else None)


def _digest(*parts) -> str:
    """Stable hex digest of the parts (bytes or arrays), in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.tobytes())
    return h.hexdigest()[:16]


class Graph:
    """Undirected simple graph with dense node features and optional labels.

    Parameters
    ----------
    n : int
        Number of nodes. Node ids are 0..n-1.
    edges : array-like of shape (m, 2)
        Undirected edges, one row per edge in either orientation. Self-loops,
        duplicate edges (in any orientation) and endpoints that are not
        integers are rejected. They are stored as (smaller, larger) rows in
        increasing order. A list already in that form, such as any subset of
        ``Graph.edges``, is kept as it is.
    features : array-like of shape (n, d)
        Dense real-valued node features.
    labels : array-like of shape (n,), optional
        Per-node integer class ids; -1 marks an unlabeled node.
    num_classes : int, optional
        Number of classes. Defaults to ``labels.max() + 1``.

    An argument that is already a C-contiguous array of the stored type
    (int64 edges and labels, float64 features) and owns its memory is kept,
    not copied, and marked read-only; a view is copied.
    """

    def __init__(self, n, edges, features, labels=None, num_classes=None):
        n = int(n)
        if n < 0:
            raise ValueError("node count must be non-negative")
        self.n = n

        edges = _integers(edges, "edge endpoints")
        if edges.size == 0:
            edges = np.empty((0, 2), dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (m, 2)")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            src, dst = edges[:, 0], edges[:, 1]
            # Rows with src < dst hold no loop and need no swap.
            if (src < dst).all():
                edges, dup = _canonical_pairs(src, dst, n, edges)
            elif (src == dst).any():
                raise ValueError("self-loops are not allowed")
            else:
                edges, dup = _canonical_pairs(np.minimum(src, dst),
                                              np.maximum(src, dst), n)
            if dup is not None:
                raise ValueError(f"duplicate edge {dup}")
        self.edges = _frozen(np.ascontiguousarray(edges))

        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != n:
            raise ValueError("features must have shape (n, d)")
        self.features = _frozen(features)

        if labels is None:
            labels = np.full(n, -1, dtype=np.int64)
        else:
            labels = np.ascontiguousarray(_integers(labels, "labels"))
            if labels.shape != (n,):
                raise ValueError("labels must have shape (n,)")
            if labels.size and labels.min() < -1:
                raise ValueError("labels must be >= -1")
        self.labels = _frozen(labels)

        derived = int(labels.max()) + 1 if labels.size else 0
        self.num_classes = derived if num_classes is None else int(num_classes)
        if self.num_classes < derived:
            raise ValueError("num_classes smaller than the largest label + 1")

        # CSR row pointers over both edge orientations.
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edges.ravel(), minlength=n), out=indptr[1:])
        self.indptr = _frozen(indptr)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def labeled_mask(self) -> np.ndarray:
        return self.labels >= 0

    def fingerprint(self) -> str:
        """Stable hex digest of the graph contents."""
        return _digest(str(self.n).encode(), self.edges, self.features,
                       self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.edges, other.edges)
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.labels, other.labels)
                and self.num_classes == other.num_classes)

    def __repr__(self) -> str:
        return (f"Graph(n={self.n}, edges={self.num_edges}, "
                f"d={self.num_features}, classes={self.num_classes})")


@dataclass(frozen=True, eq=False)
class DataSplit:
    """Disjoint train/validation/test node-id sets."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "validation", "test"):
            arr = np.unique(np.asarray(getattr(self, name), dtype=np.int64))
            if arr.size and arr.min() < 0:
                raise ValueError(f"{name} split contains negative node ids")
            object.__setattr__(self, name, _frozen(arr))
        total = len(self.train) + len(self.validation) + len(self.test)
        merged = np.concatenate([self.train, self.validation, self.test])
        if len(np.unique(merged)) != total:
            raise ValueError("split sets must be pairwise disjoint")

    def fingerprint(self) -> str:
        """Stable hex digest of the three node-id sets."""
        return _digest(np.array([len(self.train), len(self.validation)]),
                       self.train, self.validation, self.test)


@dataclass(frozen=True)
class PerturbationBudget:
    """Attack budget: up to ``rho`` injected nodes, each with at most ``tau`` edges."""

    rho: int
    tau: int

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")


@dataclass(frozen=True, eq=False)
class InteractionMatrix:
    """Implicit-feedback user-item interactions (bipartite, binary)."""

    users: int
    items: int
    pairs: np.ndarray  # (nnz, 2) rows of (user, item), sorted, deduplicated

    def __post_init__(self):
        pairs = _integers(self.pairs, "pairs")
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must have shape (nnz, 2)")
        if pairs.size:
            if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= self.users:
                raise ValueError("user index out of range")
            if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= self.items:
                raise ValueError("item index out of range")
            pairs, dup = _canonical_pairs(pairs[:, 0], pairs[:, 1], self.items,
                                          pairs)
            if dup is not None:
                raise ValueError("duplicate (user, item) pair")
        object.__setattr__(self, "pairs", _frozen(np.ascontiguousarray(pairs)))
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(pairs[:, 0], minlength=self.users))])
        object.__setattr__(self, "_indptr", _frozen(indptr.astype(np.int64)))

    @property
    def nnz(self) -> int:
        return self.pairs.shape[0]

    @property
    def user_degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def fingerprint(self) -> str:
        """Stable hex digest of the shape and the rating pairs."""
        return _digest(np.array([self.users, self.items]), self.pairs)

    def items_of(self, user: int) -> np.ndarray:
        if not 0 <= user < self.users:
            raise ValueError(f"user index {user} out of range")
        return self.pairs[self._indptr[user]:self._indptr[user + 1], 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, InteractionMatrix):
            return NotImplemented
        return (self.users == other.users and self.items == other.items
                and np.array_equal(self.pairs, other.pairs))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(stream,)))


# ASCII bytes that numpy's text reader skips as whitespace around a number
# and that int() and float() refuse.
_READER_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _read_columns(raw: bytes, dtype, ndmin: int, delimiter: str = "\t",
                  skiprows: int = 0):
    """The file of bytes ``raw`` parsed whole by ``np.loadtxt``, or None for
    the per-line parser to decide.

    None when the file is not ASCII, holds a byte of ``_READER_ONLY_SPACE``,
    or ``np.loadtxt`` raises or warns (an empty file warns). Outside ASCII,
    numpy's integer reader reads some letters as digits (U+01FE followed by
    5 reads as 4625). On the rest of ASCII it accepts a subset of the cells
    that ``int()`` and ``float()`` accept, with the same values, and skips
    only empty lines, which the per-line parsers skip too: a file it parses
    is one they accept, read into the same arrays. The bytes are decoded a
    chunk at a time as numpy reads the lines, never as one string.
    """
    if not raw.isascii() or any(byte in raw for byte in _READER_ONLY_SPACE):
        return None
    # newline=None turns "\r\n" and "\r" into "\n", as open() does.
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="ascii", newline=None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = np.loadtxt(text, dtype=dtype, delimiter=delimiter,
                               comments=None, quotechar=None, ndmin=ndmin,
                               skiprows=skiprows)
        except (ValueError, OverflowError):
            return None
    return None if caught else table


def load_node_classification_dataset(edge_path, node_path) -> Graph:
    """Load a graph from an edge list and a node attribute table.

    The edge file holds one ``u<TAB>v`` pair per line (0-indexed). The node
    file is a CSV with header ``node_id,label,f_1,...,f_d``; an empty label
    cell marks an unlabeled node, and every feature cell must be a finite
    number (``nan`` and ``inf`` are rejected). The node count is the number
    of node rows; node ids, labels and edge endpoints must lie below it, so
    the ids are exactly ``0..n-1``. Blank lines are skipped in both files.
    Self-loops and repeated edges are rejected with the offending line number.
    """
    node_path = Path(node_path)
    with open(node_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(node_path, 1, "missing header") from None
        if len(header) < 2 or header[0] != "node_id" or header[1] != "label":
            raise ParseError(node_path, 1, "header must start with node_id,label")
        dim = len(header) - 2
        table = _read_node_table(node_path, dim)
        labels, features = (table if table is not None
                            else _parse_node_rows(node_path, reader, dim))
    return Graph(labels.size, _read_edges(Path(edge_path), labels.size),
                 features, labels)


def _read_node_table(path: Path, dim: int):
    """The labels and features of a node table with ``dim`` features, in id
    order, or None for :func:`_parse_node_rows` to decide.

    The whole-file reader's arrays are kept only if the ids are exactly
    ``0..n-1``, every label lies in ``[-1, n)`` and every feature is finite,
    the checks the per-line parser makes. An empty label cell fails the
    whole-file parse, and a file with a quote is not tried: a quoted header
    cell may span lines, and only one header line is skipped.
    """
    raw = path.read_bytes()
    fields = [("id", np.int64), ("label", np.int64), ("features", np.float64, (dim,))]
    table = None if b'"' in raw else _read_columns(raw, fields, ndmin=1,
                                                    delimiter=",", skiprows=1)
    del raw  # the file's bytes are not needed for the copies below
    if table is None:
        return None
    ids, n = table["id"], table.size
    if ids.min() < 0 or ids.max() >= n:
        return None
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    labels = table["label"]
    if not (seen.all() and labels.min() >= -1 and labels.max() < n
            and np.isfinite(table["features"]).all()):
        return None
    ordered_labels = np.empty(n, dtype=np.int64)
    ordered_labels[ids] = labels
    features = np.empty((n, dim), dtype=np.float64)
    features[ids] = table["features"]
    return ordered_labels, features


def _parse_node_rows(path: Path, reader, dim: int):
    """The node rows after the header, parsed one by one from ``reader``:
    the parser that reports errors. Returns the labels and the features."""
    # Blank lines are skipped. The rest give the node count before any
    # row is parsed, so no array is sized by a stray id or label.
    rows = [(line_no, row) for line_no, row in enumerate(reader, start=2)
            if len(row) > 1 or "".join(row).strip()]
    n = len(rows)
    features = np.zeros((n, dim), dtype=np.float64)
    labels = np.full(n, -1, dtype=np.int64)
    ids = set()
    for line_no, row in rows:
        if len(row) != dim + 2:
            raise ParseError(path, line_no,
                             f"expected {dim + 2} columns, found {len(row)}")
        try:
            node_id = int(row[0])
        except ValueError:
            raise ParseError(path, line_no, f"bad node id {row[0]!r}") from None
        if not 0 <= node_id < n:
            raise ParseError(path, line_no,
                             f"node id {node_id} outside [0, {n}) ({n} node rows)")
        if node_id in ids:
            raise ParseError(path, line_no, f"duplicate node id {node_id}")
        ids.add(node_id)
        label_cell = row[1].strip()
        try:
            label = -1 if label_cell == "" else int(label_cell)
            feats = [float(x) for x in row[2:]]
        except ValueError:
            raise ParseError(path, line_no, "malformed label or feature") from None
        if not -1 <= label < n:
            raise ParseError(path, line_no,
                             f"label {label} outside [-1, {n}) ({n} node rows)")
        if not all(map(math.isfinite, feats)):
            raise ParseError(path, line_no, "non-finite feature")
        labels[node_id] = label
        features[node_id] = feats
    return labels, features


def _read_edges(path: Path, n: int) -> np.ndarray:
    """The edges of an edge file with ``n`` nodes, as (smaller, larger) id rows.

    The whole-file reader parses a valid file; any other goes to
    :func:`_parse_edge_lines`, which names the first bad line.
    """
    pairs = _read_columns(path.read_bytes(), np.int64, ndmin=2)
    if pairs is not None and pairs.shape[1] == 2:
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        if (lo < hi).all() and (lo >= 0).all() and (hi < n).all():
            edges, dup = _canonical_pairs(lo, hi, n)
            if dup is None:
                return edges
    return _parse_edge_lines(path, n)


def _parse_edge_lines(path: Path, n: int) -> np.ndarray:
    """The edge file parsed line by line: the parser that reports errors."""
    edges = []
    seen = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(path, line_no, f"expected 'u<TAB>v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(path, line_no, f"non-integer endpoint in {line!r}") from None
            if u == v:
                raise ParseError(path, line_no, f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(path, line_no,
                                 f"endpoint out of range [0, {n}) in {line!r}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ParseError(path, line_no,
                                 f"duplicate edge {key} (first at line {seen[key]})")
            seen[key] = line_no
            edges.append(key)
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def save_node_classification_dataset(graph: Graph, edge_path, node_path) -> None:
    """Write a graph back to the edge-list / node-table formats losslessly."""
    with open(edge_path, "w", encoding="utf-8") as fh:
        for u, v in graph.edges:
            fh.write(f"{u}\t{v}\n")
    with open(node_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        d = graph.num_features
        writer.writerow(["node_id", "label"] + [f"f_{j + 1}" for j in range(d)])
        for v in range(graph.n):
            label = "" if graph.labels[v] < 0 else str(int(graph.labels[v]))
            row = [str(v), label] + ["%.17g" % x for x in graph.features[v]]
            writer.writerow(row)


_RATING_FIELDS = [("user", np.int64), ("item", np.int64),
                  ("rating", np.float64), ("timestamp", np.int64)]


def _parse_rating_lines(path: Path):
    """The rating log parsed line by line: the parser that reports errors.

    Returns the user, item, timestamp and line number columns.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError(path, line_no, "expected 4 tab-separated fields")
            try:
                user, item = int(parts[0]), int(parts[1])
                float(parts[2])
                ts = int(parts[3])
            except ValueError:
                raise ParseError(path, line_no, f"malformed record {line!r}") from None
            records.append((user, item, ts, line_no))

    try:
        parsed = np.array(records, dtype=np.int64)
    except OverflowError:  # report the first field outside int64
        for *values, line_no in records:
            for name, value in zip(("user", "item", "timestamp"), values):
                if not -2**63 <= value < 2**63:
                    raise ParseError(path, line_no,
                                     f"{name} {value} is outside int64") from None
    return parsed.reshape(-1, 4).T


def _by_user_and_time(users: np.ndarray, timestamps: np.ndarray,
                      order: np.ndarray) -> np.ndarray:
    """``order`` stably re-sorted by (user, timestamp): records that tie on
    both keep their order in ``order``.

    One stable sort on the user and the dense rank of the timestamp. With
    ``order`` sorting distinct (user, item) pairs, this is
    ``np.lexsort((items, timestamps, users))``.
    """
    ranks = np.unique(timestamps, return_inverse=True)[1]
    keys = users * (ranks.max(initial=0) + 1) + ranks
    return order[np.argsort(keys[order], kind="stable")]


def load_interaction_dataset(path, split_fraction: float):
    """Load a tab-separated rating log and split it per user by time.

    Each line is ``user<TAB>item<TAB>rating<TAB>timestamp``. Ratings are
    binarized to implicit feedback. Per user, the earliest ``split_fraction``
    of records (ordered by timestamp, ties by item id) become training
    interactions; the rest are held out. Users with fewer than two records go
    wholly to training. User and item ids are remapped to dense 0-based
    indices in ascending id order.

    Returns
    -------
    (InteractionMatrix, list[np.ndarray])
        Training interactions and, per dense user index, the held-out item
        indices.
    """
    if not 0 < split_fraction <= 1:
        raise ValueError("split_fraction must be in (0, 1]")
    path = Path(path)
    table = _read_columns(path.read_bytes(), _RATING_FIELDS, ndmin=1)
    if table is None:
        users, items, ts, line_nos = _parse_rating_lines(path)
    else:
        users, items, ts = table["user"], table["item"], table["timestamp"]
        line_nos = None
    user_ids, u = np.unique(users, return_inverse=True)
    item_ids, i = np.unique(items, return_inverse=True)
    num_users, num_items = len(user_ids), len(item_ids)

    keys = u * num_items + i
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeats = order[1:][sorted_keys[1:] == sorted_keys[:-1]]
    if repeats.size:
        if line_nos is None:  # the whole-file parse numbers no line
            line_nos = _parse_rating_lines(path)[3]
        at = repeats.min()  # the repeat that comes first in the file
        first = order[np.searchsorted(sorted_keys, keys[at])]
        raise ParseError(path, int(line_nos[at]),
                         f"duplicate interaction user={users[at]} item={items[at]} "
                         f"(first at line {line_nos[first]})")

    # Each user's records by timestamp, ties by item id, then ranked.
    order = _by_user_and_time(u, ts, order)
    counts = np.bincount(u, minlength=num_users)
    ranks = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    n_train = np.maximum(1, np.floor(split_fraction * counts)).astype(np.int64)
    n_train[counts < 2] = counts[counts < 2]
    train = np.zeros(len(order), dtype=bool)
    train[order] = ranks < np.repeat(n_train, counts)

    held = np.sort(keys[~train])  # by user, then item
    bounds = np.searchsorted(held, np.arange(1, num_users) * num_items)
    matrix = InteractionMatrix(users=num_users, items=num_items,
                               pairs=np.stack([u[train], i[train]], axis=1))
    return matrix, np.split(held % num_items, bounds) if num_users else []


def _split(ids: np.ndarray, rng: np.random.Generator) -> DataSplit:
    """Permute ``ids``; cut 20 % train and 10 % validation (>= 1 each), rest test."""
    perm = ids[rng.permutation(ids.size)]
    n_train = max(1, int(round(0.2 * ids.size)))
    n_val = max(1, int(round(0.1 * ids.size)))
    return DataSplit(train=perm[:n_train],
                     validation=perm[n_train:n_train + n_val],
                     test=perm[n_train + n_val:])


# Candidate pairs per block of rows in generate_sbm.
_PAIR_BLOCK = 1 << 20


def generate_sbm(n: int, classes: int, p_in: float, p_out: float, d: int,
                 seed: int) -> tuple[Graph, DataSplit]:
    """Generate a planted-partition graph with noisy one-hot features.

    Nodes are split into ``classes`` equal blocks (block id = label). Each
    within-block pair is connected with probability ``p_in``, each cross-block
    pair with ``p_out``. Features are the one-hot class centroid plus unit
    Gaussian noise, so ``d >= classes`` is required. The returned split is a
    seeded 20/10/70 partition. Deterministic for a fixed seed.
    """
    if not (0 <= p_out <= p_in <= 1):
        raise ValueError("need 0 <= p_out <= p_in <= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if n % classes != 0:
        raise ValueError("n must be divisible by classes")
    if d < classes:
        raise ValueError("feature dimension must be >= classes (one-hot centroids)")

    block = n // classes
    labels = np.repeat(np.arange(classes, dtype=np.int64), block)

    # One coin per pair u < v, drawn in row-major pair order, a block of
    # rows at a time: the pairs of rows [lo, hi) are the next stretch of
    # the coin stream, so no more than _PAIR_BLOCK pairs are held at once.
    coins = _rng(seed, 0)
    rows_per_block = max(1, _PAIR_BLOCK // max(n, 1))
    columns = np.arange(n)
    blocks = []
    for lo in range(0, n, rows_per_block):
        rows = columns[lo:lo + rows_per_block]
        iu, iv = np.nonzero(columns > rows[:, None])
        iu += lo
        p = np.where(labels[iu] == labels[iv], p_in, p_out)
        keep = coins.random(iu.shape[0]) < p
        blocks.append(np.stack([iu[keep], iv[keep]], axis=1))
    edges = np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)

    features = np.zeros((n, d), dtype=np.float64)
    features[np.arange(n), labels] = 1.0
    features += _rng(seed, 1).standard_normal((n, d))

    return Graph(n, edges, features, labels), _split(np.arange(n), _rng(seed, 2))


def seeded_split(graph: Graph, seed: int) -> DataSplit:
    """Seeded 20/10/70 train/validation/test partition of the labeled nodes."""
    split = _split(np.flatnonzero(graph.labeled_mask), _rng(seed, 3))
    if split.test.size == 0:
        raise ValueError("too few labeled nodes for a 3-way split")
    return split
