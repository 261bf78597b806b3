"""Base classifiers with the isolated-node-independence property.

Two kinds are provided: a two-layer message-passing network (row
normalized mean aggregation with self-loops, relu in between) and a feature
MLP, which is the same network on the edgeless graph. Both are trained with
a momentum-free per-parameter scaled gradient step (Adagrad) implemented
directly in numpy, which keeps training bit-deterministic for a fixed seed.
Parameters, gradients and Adagrad cache are each one vector of one layout.

A deleted or isolated node has no incident edges, so its normalized row
reduces to the self-loop and its prediction depends on its own features only;
appending isolated nodes can never change predictions on existing nodes. That
independence is what makes the vote certificates sound for these models and
is covered by an exact test.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import _sparsetools

from .graph import DataSplit, Graph
from .sampling import SmoothingParams, derive_sample_seed, sample_smoothed_graph

KINDS = ("message_passing_2layer", "feature_mlp")

_INIT_STREAM = 1 << 40
_ADAGRAD_EPS = 1e-10


@dataclass(frozen=True)
class ClassifierSpec:
    """Architecture and optimization settings for a base classifier."""

    kind: str = "message_passing_2layer"
    hidden_dim: int = 64
    epochs: int = 200
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (np.isfinite(self.learning_rate) and np.isfinite(self.weight_decay)):
            raise ValueError("learning_rate and weight_decay must be finite")

    @property
    def aggregates(self) -> bool:
        """Whether the model averages over edges; the MLP ignores them."""
        return self.kind == "message_passing_2layer"


@dataclass(frozen=True, eq=False)
class TrainedModel:
    spec: ClassifierSpec
    weights: dict  # w1, b1, w2, b2
    num_classes: int
    num_features: int
    graph_fingerprint: str


@dataclass(frozen=True, eq=False)
class Operator:
    """A row-normalized operator as the CSR arrays of its filled rows.

    ``rows`` are the sorted ids of the filled rows; every other row of the
    operator is empty. Row ``i`` of the arrays is row ``rows[i]``, and its
    columns are ids below ``num_nodes``: an operator from
    :func:`normalized_operator` is ``num_nodes`` x ``num_nodes``. A forward
    pass computes the filled rows only, its live rows: an edgeless node with
    an empty row neither feeds nor reads a filled row.
    """

    rows: np.ndarray
    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def product_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The filled rows of ``operator @ x`` (rows x width) into ``out``."""
        return _product_into("csr", (self.rows.size, self.num_nodes), self, x, out)

    def transposed_product_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``operator.T @ y`` into the n-row ``out``, for the ``y`` that is
        ``x`` (rows x width) on the filled rows and zero elsewhere."""
        return _product_into("csc", (self.num_nodes, self.rows.size), self, x, out)

    def through(self, ids: np.ndarray, num_nodes: int) -> "Operator":
        """This operator with column ``c`` read as column ``ids[c]`` of
        ``num_nodes``, in the same order: its product with ``x`` is the bytes
        of this one's with ``x[ids]``, with no gather. The index type stays,
        unless ``num_nodes`` needs int64."""
        index = self.indices.dtype if num_nodes <= 2**31 else np.dtype(np.int64)
        return Operator(self.rows, int(num_nodes), self.indptr.astype(index, copy=False),
                        ids[self.indices].astype(index), self.data)


def normalized_operator(num_nodes: int, edges: np.ndarray,
                        rows: Optional[np.ndarray] = None) -> Operator:
    """Row-normalized adjacency with a self-loop on every node.

    ``edges`` is a duplicate-free, loop-free edge list such as
    ``Graph.edges``. Row ``v`` holds ``1 / (degree(v) + 1)`` at ``v`` and at
    each neighbor, with columns in descending order. Sparse products sum a
    row in its stored order, so this fixed layout keeps every forward pass
    bit-identical however the operator was assembled.

    With ``rows`` given, a node without an edge keeps its row only if it is
    in ``rows``; the rows of the other edgeless nodes are left empty.
    """
    n = int(num_nodes)
    if rows is None:
        loops = np.arange(n, dtype=np.int64)
    else:
        filled = np.zeros(n, dtype=bool)
        filled[edges] = True
        filled[rows] = True
        loops = np.flatnonzero(filled)
    src = np.concatenate([edges[:, 0], edges[:, 1], loops])
    dst = np.concatenate([edges[:, 1], edges[:, 0], loops])
    # int32 where it holds every entry, the index type scipy picks itself.
    index = np.int32 if src.size + n < 2**31 else np.int64
    # Sorted src * n + (n - 1 - dst) keys run by row, then by descending column.
    indices = ((n - 1) - np.sort(src * n + (n - 1 - dst)) % n).astype(index)
    sizes = np.bincount(src, minlength=n)
    indptr = np.zeros(loops.size + 1, dtype=index)
    np.cumsum(sizes[loops], out=indptr[1:])
    data = 1.0 / np.repeat(sizes, sizes)
    return Operator(loops, n, indptr, indices, data)


def _parameter_views(flat: np.ndarray, spec, num_features, num_classes) -> dict:
    """``w1, b1, w2, b2`` as views of ``flat``, which holds them in that order,
    each row-major, along its last axis (C-contiguous views of a vector)."""
    shapes = {"w1": (num_features, spec.hidden_dim), "b1": (spec.hidden_dim,),
              "w2": (spec.hidden_dim, num_classes), "b2": (num_classes,)}
    ends = np.cumsum([np.prod(shape) for shape in shapes.values()])
    return {key: part.reshape(flat.shape[:-1] + shape) for (key, shape), part
            in zip(shapes.items(), np.split(flat, ends[:-1], axis=-1))}


def _init_weights(spec, num_features: int, num_classes: int) -> np.ndarray:
    rng = np.random.default_rng(derive_sample_seed(spec.seed, _INIT_STREAM))

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=fan_in * fan_out)

    h = spec.hidden_dim
    return np.concatenate([glorot(num_features, h), np.zeros(h),
                           glorot(h, num_classes), np.zeros(num_classes)])


def add_sparse_product(op, x: np.ndarray, out: np.ndarray, lo: int = 0,
                       hi: Optional[int] = None) -> np.ndarray:
    """Add ``op[lo:hi] @ x`` for a CSR ``op``, or ``op[:, lo:hi] @ x`` for a
    CSC one, and a 2-d ``x`` into the C-contiguous float64 ``out``, and
    return it; ``hi`` defaults to the end.

    Runs the kernel that ``op @ x`` runs (``_cs_matrix._matmul_vector`` for
    one column, ``_matmul_multivector`` otherwise, scipy 1.17.1). It adds
    each stored entry's product into its output row in place, in stored
    order, through the same ``axpy`` in either format. So on a zeroed
    ``out`` the whole product is ``op @ x`` bit for bit, and a CSC product
    added range by range, ascending, gives each output row the adds of the
    whole product in the same order: the same bits.
    """
    csr = op.format == "csr"
    hi = op.shape[0 if csr else 1] if hi is None else hi
    shape = (hi - lo, op.shape[1]) if csr else (op.shape[0], hi - lo)
    return _product_add(op.format, shape, op.indptr[lo:hi + 1], op, x, out)


def _product_into(fmt: str, shape: tuple, op, x: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """``op @ x`` into ``out`` (see :func:`add_sparse_product`) for the
    ``indptr``, ``indices`` and ``data`` of ``op``, read as a ``shape``
    matrix in the format ``fmt``."""
    out.fill(0.0)
    return _product_add(fmt, shape, op.indptr, op, x, out)


def _product_add(fmt: str, shape: tuple, indptr: np.ndarray, op, x: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """Add the ``shape`` matrix in the format ``fmt`` of ``indptr`` and the
    ``indices`` and ``data`` of ``op`` times ``x`` into ``out``. The kernels
    read ``indptr`` as absolute offsets, so a slice of it selects rows
    (CSR) or columns (CSC) with no copy."""
    rows, cols = shape
    arrays = (indptr, op.indices, op.data, x.ravel(), out.ravel())
    if x.shape[1] == 1:
        getattr(_sparsetools, fmt + "_matvec")(rows, cols, *arrays)
    else:
        getattr(_sparsetools, fmt + "_matvecs")(rows, cols, x.shape[1], *arrays)
    return out


class Workspace:
    """The buffers of forward passes of up to ``rows`` rows, reused by every
    pass given this workspace; a pass uses their leading rows. Not safe to
    share between threads. ``hidden`` holds the activations of the live
    rows, ``h1`` the second layer's n-row operand (``hidden`` itself, as
    every row of a prediction is live), ``t2`` its product with ``w2`` and
    ``logits`` the live rows' logits.

    An evasion batch of about 1000 rows at 64 hidden units holds 0.5 MB of
    float64 activations, above glibc's mmap threshold: a fresh buffer per
    batch is mapped and faulted in again each time. A buffer sized once
    for the largest batch faults in only the pages that batches touch.
    """

    def __init__(self, rows: int, hidden: int, classes: int):
        self.hidden = self.h1 = np.empty((rows, hidden))
        self.t2 = np.empty((rows, classes))
        self.logits = np.empty((rows, classes))


class _TrainingWorkspace(Workspace):
    """A :class:`Workspace` of n rows plus the backward pass's buffers,
    written in place by every epoch of a training and by a final prediction.

    An epoch computes its elementwise and sparse work on its live rows only
    (``Operator.rows``), in the leading rows of ``hidden`` and
    ``positive``. The dense products keep n-row operands, each live row at
    its node's position: OpenBLAS rounds a row of a product differently
    with the row's position, so a compact product would change the trained
    weights. ``t1`` holds ``features @ w1`` and, once that is spent,
    ``agg.T @ d_z1``; ``h1`` holds the activations on the live rows and
    exact zeros on every other row, which therefore meet only the zero rows
    of ``d_t2``; ``d_z1`` holds ``d_t2 @ w2.T``, masked on the live rows.
    """

    def __init__(self, rows: int, hidden: int, classes: int):
        super().__init__(rows, hidden, classes)
        self.t1 = np.empty((rows, hidden))
        self.h1 = np.zeros((rows, hidden))
        self.d_z1 = np.empty((rows, hidden))
        self.positive = np.empty((rows, hidden), dtype=bool)


def _forward(weights: dict, first: Operator, operator: Operator, t1: np.ndarray,
             work: Workspace) -> np.ndarray:
    """Logits of the live rows, in the leading rows of ``work.logits``, from
    ``t1 = features @ w1``, which is computed before aggregation (same map by
    associativity) so that it can be cached across smoothing samples.

    The first layer is ``first @ t1``: ``operator`` itself, or ``operator``
    read through the node id of each column (:meth:`Operator.through`) over
    the rows of every node. Every write goes into ``work``; where its ``h1``
    is its own buffer, that buffer's rows off the live ones must hold exact
    zeros. Raises ``ValueError`` if the pass does not fit ``work``.
    """
    live, n = operator.rows.size, operator.num_nodes
    if (n > work.h1.shape[0] or work.h1.shape[1] != weights["w2"].shape[0]
            or work.t2.shape[1] != weights["w2"].shape[1]):
        raise ValueError("the workspace does not fit this batch")
    h, h1 = work.hidden[:live], work.h1[:n]
    first.product_into(t1, h)
    h += weights["b1"]
    np.maximum(h, 0.0, out=h)
    if work.h1 is not work.hidden:
        h1[operator.rows] = h
    t2 = np.matmul(h1, weights["w2"], out=work.t2[:n])
    logits = operator.product_into(t2, work.logits[:live])
    logits += weights["b2"]
    return logits


def _gradients(weights, operator: Operator, at, features, targets, weight_decay,
               work: _TrainingWorkspace, grads: dict) -> None:
    """Gradients of the mean training cross-entropy into the views ``grads``.

    ``at`` holds each training node's position among the live rows. Every
    other row holds exact zeros in ``h1``, ``d_t2``, ``d_z1`` and the sparse
    products' outputs, so the n-row dense products and sums below yield the
    same bits as over every row.
    """
    rows, k = operator.rows, operator.rows.size
    t1 = np.matmul(features, weights["w1"], out=work.t1)
    logits = _forward(weights, operator, operator, t1, work)[at]
    h = work.hidden[:k]  # relu(z1) on the live rows
    # relu(z1) > 0 exactly where z1 > 0 (NaN is neither).
    positive = np.greater(h, 0.0, out=work.positive[:k])
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    d_train = e / e.sum(axis=1, keepdims=True)  # softmax
    d_train[targets] -= 1.0
    d_train /= at.size
    d_logits = np.zeros((k, d_train.shape[1]))  # zero off the training rows
    d_logits[at] = d_train

    d_t2 = np.empty((operator.num_nodes, d_logits.shape[1]))
    operator.transposed_product_into(d_logits, d_t2)
    np.matmul(work.h1.T, d_t2, out=grads["w2"])
    grads["w2"] += weight_decay * weights["w2"]
    # With two or more columns numpy sums axis 0 a row at a time, so the
    # zero rows off the training nodes would add nothing.
    d_train.sum(axis=0, out=grads["b2"])
    d_z1 = np.matmul(d_t2, weights["w2"].T, out=work.d_z1)
    d_z1_live = np.take(d_z1, rows, axis=0, out=h, mode="clip")  # h is spent
    d_z1_live *= positive
    # A one-column sum (one hidden unit) runs pairwise, where zero rows do
    # change the bits, so b1's gradient keeps its n rows.
    d_z1[rows] = d_z1_live
    d_t1 = operator.transposed_product_into(d_z1_live, t1)
    np.matmul(features.T, d_t1, out=grads["w1"])
    grads["w1"] += weight_decay * weights["w1"]
    d_z1.sum(axis=0, out=grads["b1"])


def _adagrad_step(flat, grads, cache, learning_rate):
    cache += grads * grads
    flat -= learning_rate * grads / (np.sqrt(cache) + _ADAGRAD_EPS)


def _check_train_nodes(graph: Graph, train_idx: np.ndarray) -> None:
    if train_idx.size == 0:
        raise ValueError("training split is empty")
    if np.any(graph.labels[train_idx] < 0):
        raise ValueError("every training node must carry a label")


def _fit(spec: ClassifierSpec, graph: Graph, train_idx: np.ndarray,
         operators: Iterable[Operator], work: _TrainingWorkspace) -> dict:
    """Trained weights after one Adagrad step per operator in ``operators``
    on the sorted, distinct training nodes ``train_idx``, computed in
    ``work``, a training workspace of ``graph.n`` rows.

    Each step works on the live rows of its operator, its filled rows,
    which must include every training node. Give an edgeless node that is
    not a training node an empty row (``normalized_operator(n, edges,
    train_idx)``) and no step computes it; the weights are the same bits
    either way. Weights, gradients and cache are each one vector laid out by
    :func:`_parameter_views`. The gradients are written into its views and a
    step is one elementwise update, so each weight gets the same bits.

    Raises ``FloatingPointError`` if training leaves a weight that is not
    finite: such a model would put every vote on class 0. That check is the
    one report of an overflow, so numpy's per-operation warnings are off.
    """
    if graph.num_classes < 2:
        raise ValueError("training requires at least 2 classes")
    flat = _init_weights(spec, graph.num_features, graph.num_classes)
    gradient, cache = np.empty_like(flat), np.zeros_like(flat)
    weights, grads = (_parameter_views(v, spec, graph.num_features, graph.num_classes)
                      for v in (flat, gradient))
    # Each training row's label column, where softmax - onehot subtracts 1.
    targets = (np.arange(train_idx.size), graph.labels[train_idx])
    live = None
    with np.errstate(over="ignore", invalid="ignore"):
        for operator in operators:
            if operator is not live:
                if live is not None:
                    work.h1[live.rows] = 0.0  # rows outside the live ones stay 0
                live = operator
                at = np.searchsorted(live.rows, train_idx)
            _gradients(weights, live, at, graph.features, targets,
                       spec.weight_decay, work, grads)
            _adagrad_step(flat, gradient, cache, spec.learning_rate)
    if not np.isfinite(flat).all():
        raise FloatingPointError(
            f"{spec.kind} training diverged: weights are not finite after "
            f"{spec.epochs} epochs (learning rate {spec.learning_rate}, "
            f"weight decay {spec.weight_decay})")
    return weights


def _kind_edges(spec: ClassifierSpec, edges: np.ndarray) -> np.ndarray:
    """The edges a model of ``spec``'s kind aggregates over: ``edges``, or
    none for the MLP, the two-layer network on the edgeless graph."""
    return edges if spec.aggregates else np.empty((0, 2), dtype=np.int64)


def train_with_noise(spec: ClassifierSpec, graph: Graph, split: DataSplit,
                     params: SmoothingParams) -> TrainedModel:
    """Train a base classifier with smoothing noise augmentation.

    Each epoch draws a fresh smoothed sample (seeded from ``spec.seed`` and
    the epoch index) and takes one optimization step of the cross-entropy over
    the training nodes on it. Deterministic given the seeds.
    """
    train_idx = np.asarray(split.train, dtype=np.int64)
    _check_train_nodes(graph, train_idx)

    def operator(epoch):
        sample = sample_smoothed_graph(graph, params,
                                       derive_sample_seed(spec.seed, epoch))
        return normalized_operator(graph.n, sample.graph.edges, train_idx)

    # The MLP sees no edges, so it draws no samples: one operator serves.
    operators = (map(operator, range(spec.epochs)) if spec.aggregates else repeat(
        normalized_operator(graph.n, _kind_edges(spec, graph.edges), train_idx),
        spec.epochs))
    work = _TrainingWorkspace(graph.n, spec.hidden_dim, graph.num_classes)
    weights = _fit(spec, graph, train_idx, operators, work)
    return TrainedModel(spec=spec, weights=weights,
                        num_classes=graph.num_classes,
                        num_features=graph.num_features,
                        graph_fingerprint=graph.fingerprint())


def feature_transform(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """First-layer feature product, cacheable across smoothing samples.

    Raises ``ValueError`` naming the first node whose product is not finite:
    that node's logits would not be finite, and NaN logits vote for class 0.
    """
    if features.shape[1] != model.num_features:
        raise ValueError(
            f"feature dimension {features.shape[1]} does not match "
            f"the trained model ({model.num_features})")
    # The check below is the one report of an overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        transformed = features @ model.weights["w1"]
    bad = np.flatnonzero(~np.isfinite(transformed).all(axis=1))
    if bad.size:
        raise ValueError(f"features of node {bad[0]} give a first-layer product "
                         "that is not finite")
    return transformed


def predict(model: TrainedModel, graph: Graph) -> np.ndarray:
    """Per-node class predictions (argmax, ties to the lower class id)."""
    return predict_rows(model, feature_transform(model, graph.features),
                        np.arange(graph.n), graph.edges)


def _predict_all(weights: dict, first: Operator, operator: Operator,
                 t1: np.ndarray, nodes: np.ndarray, work: Workspace) -> np.ndarray:
    """The class of every row of ``operator``, which must fill every row, from
    ``first @ t1`` (see :func:`_forward`), computed in ``work``; row ``r`` is
    node ``nodes[r]``.

    Raises ``FloatingPointError`` naming the node of the first row whose
    logits are not finite, as NaN logits would vote for class 0.
    """
    # The check below is the one report of an overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = _forward(weights, first, operator, t1, work)
    if not np.isfinite(logits).all():
        bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))[0]
        raise FloatingPointError(f"logits of node {nodes[bad]} are not finite")
    return np.argmax(logits, axis=1)


def predict_rows(model: TrainedModel, transformed: np.ndarray, nodes: np.ndarray,
                 edges: np.ndarray,
                 workspace: Optional[Workspace] = None) -> np.ndarray:
    """Predictions for a stack of node copies joined by ``edges``.

    Row ``r`` is a copy of node ``nodes[r]`` and ``edges`` connect rows, not
    nodes. Stacking the non-isolated nodes of several smoothed graphs, each
    graph's edges renumbered to its rows, gives a block-diagonal operator
    whose rows equal :func:`predict` on each graph for those nodes.
    ``transformed`` is the :func:`feature_transform` of every node; the
    first layer reads it through each column's node id
    (:meth:`Operator.through`), so no row of it is copied. The forward
    pass runs in ``workspace``: a fresh one, or one that holds the batch,
    kept by the caller across calls.

    Raises ``FloatingPointError`` naming the first node whose logits are not
    finite, and ``ValueError`` if the batch does not fit ``workspace``.
    """
    operator = normalized_operator(len(nodes), _kind_edges(model.spec, edges))
    first = operator.through(np.asarray(nodes), transformed.shape[0])
    if workspace is None:
        workspace = Workspace(len(nodes), *model.weights["w2"].shape)
    return _predict_all(model.weights, first, operator, transformed, nodes, workspace)


def train_predict_end_to_end(spec: ClassifierSpec, graph: Graph,
                             split: DataSplit) -> Optional[np.ndarray]:
    """Train on one smoothed graph and predict on it (no extra noise).

    Training nodes isolated in the graph are bypassed by the loss. The
    prediction runs in the training's own workspace, so one call holds one
    set of n-row buffers; every row of it is live, so its activations in
    ``hidden`` are the second layer's operand, with no copy into ``h1``.
    Returns every node's class id, or None when every
    training node is isolated: there is nothing to train on. Raises
    ``FloatingPointError`` naming the first node whose logits are not finite.
    """
    train_idx = np.asarray(split.train, dtype=np.int64)
    _check_train_nodes(graph, train_idx)
    train_idx = train_idx[graph.degrees[train_idx] > 0]
    if train_idx.size == 0:
        return None
    edges = _kind_edges(spec, graph.edges)
    work = _TrainingWorkspace(graph.n, spec.hidden_dim, graph.num_classes)
    weights = _fit(spec, graph, train_idx,
                   repeat(normalized_operator(graph.n, edges, train_idx), spec.epochs),
                   work)
    with np.errstate(over="ignore", invalid="ignore"):  # _predict_all reports it
        t1 = np.matmul(graph.features, weights["w1"], out=work.t1)
    operator = normalized_operator(graph.n, edges)
    work.h1 = work.hidden  # training is done with its own h1
    return _predict_all(weights, operator, operator, t1, np.arange(graph.n), work)
