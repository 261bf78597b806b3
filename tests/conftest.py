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
    worker count of each pool made and each chunk's first sample, in the
    order run."""
    def install(cpus, reverse=False):
        pools, ran = [], []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                chunks = list(zip(*iterables))
                for chunk in chunks[::-1] if reverse else chunks:
                    ran.append(chunk[0])
                    yield fn(*chunk)

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        return pools, ran
    return install
