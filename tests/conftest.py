from concurrent.futures import Future

import numpy as np
import pytest

from smoothcert import ClassifierSpec, Graph, TrainedModel, generate_sbm, pipeline


@pytest.fixture
def two_clique_graph():
    """Four nodes, two disjoint edges, features that couple to the structure.

    Nodes 0-1 form class 0, nodes 2-3 class 1. Nodes 1 and 2 carry slightly
    flipped features so their prediction under mean aggregation depends on
    whether their clique edge survived.
    """
    features = np.array([
        [1.0, 0.0],
        [0.4, 0.6],
        [0.0, 1.0],
        [0.6, 0.4],
    ])
    return Graph(4, [(0, 1), (2, 3)], features, labels=[0, 0, 1, 1])


@pytest.fixture
def identity_model():
    """Two-layer aggregation model with identity weights: logits = P @ P @ X."""
    spec = ClassifierSpec(kind="message_passing_2layer", hidden_dim=2, epochs=1)
    weights = {
        "w1": np.eye(2),
        "b1": np.zeros(2),
        "w2": np.eye(2),
        "b2": np.zeros(2),
    }
    return TrainedModel(spec=spec, weights=weights, num_classes=2,
                        num_features=2, graph_fingerprint="fixture")


@pytest.fixture(scope="session")
def sbm_fixture():
    """Separable two-block graph used by the model and pipeline tests."""
    graph, split = generate_sbm(n=120, classes=2, p_in=0.35, p_out=0.02,
                                d=4, seed=7)
    return graph, split


@pytest.fixture
def serial_pool(monkeypatch):
    """``install(cpus, reverse=False)`` makes the vote scheduler see ``cpus``
    usable CPUs and run its chunks one after another on this thread, last
    first if ``reverse``. It returns two lists that fill as chunks run: the
    pool threads of each pool made and each chunk's first sample, in the
    order run."""
    chunks = pipeline._chunks

    def install(cpus, reverse=False):
        pools, ran = [], []

        def ordered(*args):
            listed = chunks(*args)
            for chunk in listed[::-1] if reverse else listed:
                ran.append(chunk[0])
                yield chunk

        class SerialPool:
            """Runs each submitted call at once, on this thread."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                try:
                    future.set_result(fn(*args))
                except Exception as error:
                    future.set_exception(error)
                return future

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(pipeline, "_chunks", ordered)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        return pools, ran
    return install
