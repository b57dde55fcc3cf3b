"""End-to-end density-adaptive aggregation: bit-identity and savings.

Adaptive mode must be an *observably free* switch for model quality: the
trained weights are bit-identical to dense mode across every aggregation
backend, ring size, and payload density — while the simulator reports
fewer bytes-on-wire (and no more simulated time) whenever the gradient
stays sparse.
"""

import numpy as np
import pytest

from repro import AggregationSpec
from repro.cluster import ClusterConfig
from repro.data import concentrated_classification, sparse_classification
from repro.ml import LogisticRegressionWithSGD, SVMWithSGD
from repro.obs import RecordingListener, attribute_critical_path
from repro.rdd import SparkerContext
from repro.serde import SparsePolicy

NODES = 2


def _policy(adaptive):
    return SparsePolicy() if adaptive else None


def _train(points, dim, *, adaptive, aggregation="split", parallelism=4,
           nodes=NODES, iterations=3, listener=None):
    sc = SparkerContext(ClusterConfig.bic(num_nodes=nodes))
    if listener is not None:
        sc.event_bus.subscribe(listener)
    rdd = sc.parallelize(points, sc.default_parallelism).cache()
    rdd.count()
    began = sc.now
    model = LogisticRegressionWithSGD.train(
        rdd, dim, num_iterations=iterations, aggregation=aggregation,
        spec=AggregationSpec(parallelism=parallelism,
                             sparse_policy=_policy(adaptive)))
    return model, sc.now - began


@pytest.fixture(scope="module")
def sparse_points():
    # features live on a narrow support: the summed gradient stays sparse
    pts, _ = concentrated_classification(
        n_samples=240, n_features=2_000, nnz_per_sample=8,
        support_size=60, seed=17)
    return pts


@pytest.mark.parametrize("aggregation", ["tree", "tree_imm", "split"])
def test_adaptive_bit_identical_all_backends(sparse_points, aggregation):
    dense_model, _ = _train(sparse_points, 2_000, adaptive=False,
                            aggregation=aggregation)
    adaptive_model, _ = _train(sparse_points, 2_000, adaptive=True,
                               aggregation=aggregation)
    np.testing.assert_array_equal(dense_model.weights,
                                  adaptive_model.weights)


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_adaptive_bit_identical_across_ring_sizes(sparse_points,
                                                  parallelism):
    dense_model, _ = _train(sparse_points, 2_000, adaptive=False,
                            parallelism=parallelism)
    adaptive_model, _ = _train(sparse_points, 2_000, adaptive=True,
                               parallelism=parallelism)
    np.testing.assert_array_equal(dense_model.weights,
                                  adaptive_model.weights)


@pytest.mark.parametrize("support", [2, 20, 200, 2_000])
def test_adaptive_bit_identical_across_densities(support):
    # support/n_features spans 0.1% ... 100% payload density
    pts, _ = concentrated_classification(
        n_samples=160, n_features=2_000, nnz_per_sample=min(6, support),
        support_size=support, seed=23)
    dense_model, dense_time = _train(pts, 2_000, adaptive=False)
    adaptive_model, adaptive_time = _train(pts, 2_000, adaptive=True)
    np.testing.assert_array_equal(dense_model.weights,
                                  adaptive_model.weights)
    # the adaptive wire format is never simulated as slower
    assert adaptive_time <= dense_time * (1.0 + 1e-9)


def test_adaptive_saves_wire_bytes_when_sparse(sparse_points):
    results = {}
    for adaptive in (False, True):
        rec = RecordingListener()
        _train(sparse_points, 2_000, adaptive=adaptive, listener=rec)
        results[adaptive] = attribute_critical_path(rec.events)
    dense, adaptive = results[False], results[True]
    assert dense.sparse.sparse_hops == 0
    assert not dense.sparse.observed
    assert adaptive.sparse.sparse_hops > 0
    assert adaptive.sparse.bytes_saved > 0
    assert (adaptive.sparse.wire_send_bytes
            < adaptive.sparse.dense_send_bytes)


def test_dense_regime_virtual_time_unchanged():
    # every feature active: the payload densifies immediately and the
    # adaptive machinery must cost exactly nothing in simulated time
    pts, _ = sparse_classification(200, 80, 40, seed=29)
    dense_model, dense_time = _train(pts, 80, adaptive=False)
    adaptive_model, adaptive_time = _train(pts, 80, adaptive=True)
    np.testing.assert_array_equal(dense_model.weights,
                                  adaptive_model.weights)
    assert adaptive_time == dense_time


def test_mid_ring_densify_switch_is_observable():
    # a support wide enough that merged segments cross the densify
    # threshold mid-reduction: switch events must be recorded
    pts, _ = concentrated_classification(
        n_samples=400, n_features=800, nnz_per_sample=12,
        support_size=480, seed=31)
    rec = RecordingListener()
    _train(pts, 800, adaptive=True, listener=rec)
    report = attribute_critical_path(rec.events)
    switches = report.sparse.switches
    assert switches, "expected sparse->dense switch points mid-reduction"
    assert all(e.from_repr == "sparse" and e.to_repr == "dense"
               for e in switches)
    # both representations were actually used on the wire
    assert report.sparse.sparse_hops > 0
    assert report.sparse.dense_hops > 0


def test_tracing_does_not_perturb_adaptive_run(sparse_points):
    _, untraced = _train(sparse_points, 2_000, adaptive=True)
    rec = RecordingListener()
    _, traced = _train(sparse_points, 2_000, adaptive=True, listener=rec)
    assert traced == untraced
    assert rec.events  # the trace actually recorded something


def test_svm_adaptive_bit_identical(sparse_points):
    models = {}
    for adaptive in (False, True):
        sc = SparkerContext(ClusterConfig.bic(num_nodes=NODES))
        rdd = sc.parallelize(sparse_points, sc.default_parallelism).cache()
        rdd.count()
        models[adaptive] = SVMWithSGD.train(
            rdd, 2_000, num_iterations=3, aggregation="split",
            spec=AggregationSpec(sparse_policy=_policy(adaptive)))
    np.testing.assert_array_equal(models[False].weights,
                                  models[True].weights)
