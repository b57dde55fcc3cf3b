"""End-to-end model training tests: LR, SVM, backends, convergence."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.data import sparse_classification
from repro.ml import (
    GradientDescent,
    LogisticGradient,
    LogisticRegressionWithSGD,
    SVMWithSGD,
    SimpleUpdater,
)
from repro.rdd import SparkerContext


@pytest.fixture(scope="module")
def training_setup():
    """One shared dataset; fresh contexts per test are cheap, data isn't."""
    points, true_w = sparse_classification(500, 60, 10, seed=13)
    return points, true_w


def make_rdd(points, nodes=2):
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=nodes))
    rdd = sc.parallelize(points, 8).cache()
    rdd.count()
    return sc, rdd


def test_lr_learns_something(training_setup):
    points, _ = training_setup
    _sc, rdd = make_rdd(points)
    model = LogisticRegressionWithSGD.train(rdd, 60, num_iterations=25,
                                            step_size=2.0)
    assert model.accuracy(points) > 0.8
    assert model.losses[-1] < model.losses[0]


def test_lr_loss_monotone_overall(training_setup):
    points, _ = training_setup
    _sc, rdd = make_rdd(points)
    model = LogisticRegressionWithSGD.train(rdd, 60, num_iterations=15,
                                            step_size=1.0)
    # Full-batch GD with decaying steps: start vs end must improve a lot.
    assert model.losses[-1] < 0.9 * model.losses[0]


def test_svm_learns_something(training_setup):
    points, _ = training_setup
    _sc, rdd = make_rdd(points)
    model = SVMWithSGD.train(rdd, 60, num_iterations=25, step_size=1.0,
                             reg_param=0.01)
    assert model.accuracy(points) > 0.8


def test_backends_produce_identical_weights(training_setup):
    points, _ = training_setup
    weights = {}
    for backend in ("tree", "tree_imm", "split"):
        _sc, rdd = make_rdd(points)
        model = LogisticRegressionWithSGD.train(
            rdd, 60, num_iterations=5, step_size=1.0, aggregation=backend)
        weights[backend] = model.weights
    np.testing.assert_allclose(weights["tree"], weights["tree_imm"])
    np.testing.assert_allclose(weights["tree"], weights["split"])


def test_split_backend_is_faster_for_large_models(training_setup):
    points, _ = training_setup

    def run(backend):
        _sc, rdd = make_rdd(points, nodes=2)
        sc = rdd.sc
        t0 = sc.now
        LogisticRegressionWithSGD.train(
            rdd, 60, num_iterations=3, aggregation=backend,
            size_scale=100_000.0)  # pose as a 48MB aggregator
        return sc.now - t0

    assert run("split") < run("tree")


def test_mini_batch_fraction_trains(training_setup):
    points, _ = training_setup
    _sc, rdd = make_rdd(points)
    model = LogisticRegressionWithSGD.train(
        rdd, 60, num_iterations=12, step_size=1.0, mini_batch_fraction=0.5)
    assert model.accuracy(points) > 0.7


def test_convergence_tolerance_stops_early(training_setup):
    points, _ = training_setup
    _sc, rdd = make_rdd(points)
    model = LogisticRegressionWithSGD.train(
        rdd, 60, num_iterations=50, step_size=0.001,
        convergence_tol=0.5)  # loose tolerance: stops almost immediately
    assert len(model.losses) < 50


def test_initial_weights_respected(training_setup):
    points, _ = training_setup
    _sc, rdd = make_rdd(points)
    w0 = np.full(60, 0.25)
    model = LogisticRegressionWithSGD.train(
        rdd, 60, num_iterations=1, step_size=0.0, initial_weights=w0)
    np.testing.assert_allclose(model.weights, w0)


def test_validation_errors(training_setup):
    points, _ = training_setup
    _sc, rdd = make_rdd(points)
    with pytest.raises(ValueError):
        LogisticRegressionWithSGD.train(rdd, 0)
    with pytest.raises(ValueError):
        LogisticRegressionWithSGD.train(rdd, 60,
                                        initial_weights=np.zeros(10))
    with pytest.raises(ValueError):
        GradientDescent(LogisticGradient(), SimpleUpdater(),
                        aggregation="bogus")
    with pytest.raises(ValueError):
        GradientDescent(LogisticGradient(), SimpleUpdater(),
                        num_iterations=0)
    with pytest.raises(ValueError):
        GradientDescent(LogisticGradient(), SimpleUpdater(),
                        mini_batch_fraction=0.0)


def test_accuracy_empty_rejected(training_setup):
    points, _ = training_setup
    _sc, rdd = make_rdd(points)
    model = LogisticRegressionWithSGD.train(rdd, 60, num_iterations=1)
    with pytest.raises(ValueError):
        model.accuracy([])


def test_training_is_deterministic(training_setup):
    points, _ = training_setup

    def run():
        _sc, rdd = make_rdd(points)
        model = LogisticRegressionWithSGD.train(rdd, 60, num_iterations=4)
        return model.weights, rdd.sc.now

    (w1, t1), (w2, t2) = run(), run()
    np.testing.assert_array_equal(w1, w2)
    assert t1 == t2


def test_stopwatch_decomposition_recorded(training_setup):
    points, _ = training_setup
    sc, rdd = make_rdd(points)
    LogisticRegressionWithSGD.train(rdd, 60, num_iterations=3)
    assert sc.stopwatch.total("agg.compute") > 0
    assert sc.stopwatch.total("agg.reduce") > 0
    assert sc.stopwatch.total("ml.driver") > 0
    assert sc.stopwatch.total("ml.broadcast") > 0


def test_a_topk_run_starts_from_zero_error_feedback_carry():
    """Top-k residuals carry over between the iterations of one run, never
    from one run into the next on the same context: SVM right after an LR
    run of the same dimension lands on the same weights as SVM alone."""
    from repro import AggregationSpec

    points, _ = sparse_classification(400, 256, 8, seed=7)
    spec = AggregationSpec(topk=0.05)

    def svm_weights(after_lr):
        sc = SparkerContext(ClusterConfig.laptop())
        rdd = sc.parallelize(points, 16).cache()
        rdd.count()
        if after_lr:
            LogisticRegressionWithSGD.train(rdd, 256, num_iterations=3,
                                            aggregation="split", spec=spec)
            assert all(e.residuals for e in sc.executors)
        model = SVMWithSGD.train(rdd, 256, num_iterations=3,
                                 aggregation="split", spec=spec)
        return model.weights.tobytes()

    assert svm_weights(after_lr=True) == svm_weights(after_lr=False)
