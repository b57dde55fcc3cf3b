"""Shared seeded workloads for observability tests."""

from repro.cluster import ClusterConfig
from repro.data import sparse_classification
from repro.ml import LogisticRegressionWithSGD
from repro.obs import EventLogWriter, RecordingListener
from repro.rdd import SparkerContext


def run_lr(aggregation="split", trace=True, seed=31, num_iterations=3):
    """One seeded LR training run on the BIC cluster.

    Returns ``(sc, recorder)``; ``recorder`` is None when ``trace`` is
    False (no listener attached at all — the bus stays inactive).
    """
    points, _ = sparse_classification(200, 30, 6, seed=seed)
    sc = SparkerContext(ClusterConfig.bic(num_nodes=2))
    recorder = None
    if trace:
        recorder = RecordingListener()
        sc.event_bus.subscribe(recorder)
    rdd = sc.parallelize(points, 24).cache()
    rdd.count()
    LogisticRegressionWithSGD.train(
        rdd, 30, num_iterations=num_iterations, step_size=1.5,
        aggregation=aggregation, size_scale=1000.0)
    return sc, recorder


def dump_events(events, path):
    """Write ``events`` as a JSON-lines log through the engine's
    :class:`~repro.obs.EventLogWriter`; returns how many."""
    with EventLogWriter(path) as writer:
        for event in events:
            writer.on_event(event)
    return len(events)
