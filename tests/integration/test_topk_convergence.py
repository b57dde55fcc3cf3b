"""The opt-in approximate tier: top-k compression must be explicitly
enabled, and with its error feedback it must not change where training
lands.

LR and SVM trained with ``topk=0.05`` finish within ``rtol=1e-3`` of the
exact run's final loss, across ring sizes — and a default spec emits no
compression events at all.
"""

import pytest

from repro import AggregationSpec
from repro.cluster import ClusterConfig
from repro.data import concentrated_classification
from repro.ml import LogisticRegressionWithSGD, SVMWithSGD
from repro.obs import ResidualNorm
from repro.rdd import SparkerContext

DIM = 2_000


@pytest.fixture(scope="module")
def points():
    pts, _ = concentrated_classification(
        n_samples=240, n_features=DIM, nnz_per_sample=8,
        support_size=60, seed=17)
    return pts


def train(points, trainer, spec, *, nodes=2, iterations=5, listener=None):
    sc = SparkerContext(ClusterConfig.bic(num_nodes=nodes))
    if listener is not None:
        sc.event_bus.subscribe(listener)
    rdd = sc.parallelize(points, sc.default_parallelism).cache()
    rdd.count()
    model = trainer.train(rdd, DIM, num_iterations=iterations,
                          aggregation="split", spec=spec)
    return model


EXACT = AggregationSpec(collective="pipelined_ring", parallelism=2)
TOPK = AggregationSpec(collective="pipelined_ring", parallelism=2,
                       topk=0.05)


@pytest.mark.parametrize("trainer", [LogisticRegressionWithSGD, SVMWithSGD],
                         ids=["lr", "svm"])
def test_topk_final_loss_matches_exact(points, trainer):
    exact = train(points, trainer, EXACT)
    approx = train(points, trainer, TOPK)
    assert approx.losses[-1] == pytest.approx(exact.losses[-1], rel=1e-3)


@pytest.mark.parametrize("nodes", [2, 3])
def test_topk_error_feedback_converges_across_ring_sizes(points, nodes):
    exact = train(points, LogisticRegressionWithSGD, EXACT, nodes=nodes)
    approx = train(points, LogisticRegressionWithSGD, TOPK, nodes=nodes)
    assert approx.losses[-1] == pytest.approx(exact.losses[-1], rel=1e-3)
    # training actually descended
    assert approx.losses[-1] < approx.losses[0]


def test_error_feedback_transmits_withheld_mass(points):
    """A tight k withholds coordinates; the residual accumulators carry
    them into later rounds, so the gauge shows a bounded residual norm
    instead of a growing one."""
    events = []
    train(points, LogisticRegressionWithSGD,
          AggregationSpec(collective="pipelined_ring", parallelism=2,
                          topk=16 / DIM),
          iterations=6, listener=events.append)
    gauges = [e for e in events if isinstance(e, ResidualNorm)]
    assert gauges and all(g.k == 16 for g in gauges)
    by_exec: dict = {}
    for g in gauges:
        by_exec.setdefault(g.executor_id, []).append(g.residual_norm)
    for norms in by_exec.values():
        assert len(norms) >= 2
        # bounded: the last residual is not a runaway of the first
        assert norms[-1] <= 10 * (max(norms[0], 1e-12))


def test_compression_never_silently_enabled(points):
    events = []
    train(points, LogisticRegressionWithSGD, EXACT,
          listener=events.append)
    assert not any(isinstance(e, ResidualNorm) for e in events)


def test_topk_on_classic_ring_path_also_works(points):
    """Compression is a spec knob, not a pipelined_ring side effect: the
    phased ring path sparsifies holders too."""
    events = []
    spec = AggregationSpec(collective="ring", parallelism=2, topk=0.05)
    exact = train(points, LogisticRegressionWithSGD, EXACT)
    approx = train(points, LogisticRegressionWithSGD, spec,
                   listener=events.append)
    assert any(isinstance(e, ResidualNorm) for e in events)
    assert approx.losses[-1] == pytest.approx(exact.losses[-1], rel=1e-3)
