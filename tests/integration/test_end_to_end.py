"""Cross-module integration tests: the full stack working together."""

import numpy as np
import pytest

from repro.bench import BreakdownRecorder
from repro.cluster import MB, ClusterConfig
from repro.core import AggregationSpec
from repro.data import lda_corpus, sparse_classification
from repro.ml import LDA, LogisticRegressionWithSGD
from repro.rdd import SparkerContext
from repro.serde import SizedPayload


def test_full_training_pipeline_tree_vs_split_identical():
    """Dataset -> RDD -> training -> model: both engines, same model."""
    points, _ = sparse_classification(300, 40, 8, seed=31)
    models = {}
    for backend in ("tree", "split"):
        sc = SparkerContext(ClusterConfig.bic(num_nodes=2))
        rdd = sc.parallelize(points, 24).cache()
        rdd.count()
        models[backend] = LogisticRegressionWithSGD.train(
            rdd, 40, num_iterations=6, step_size=1.5,
            aggregation=backend, size_scale=1000.0)
    np.testing.assert_allclose(models["tree"].weights,
                               models["split"].weights)
    assert models["tree"].accuracy(points) > 0.75


def test_training_survives_executor_loss_mid_run():
    """Kill an executor mid-training; lineage + stage retry recovers and
    the model still matches the fault-free run exactly."""
    points, _ = sparse_classification(200, 30, 6, seed=37)

    def run(inject_fault):
        sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
        rdd = sc.parallelize(points, 8).cache()
        rdd.count()
        if inject_fault:
            def killer():
                yield sc.env.timeout(sc.now + 0.05)
                sc.executor_by_id(2).kill()
            sc.env.process(killer())
        model = LogisticRegressionWithSGD.train(rdd, 30, num_iterations=4)
        return model.weights

    np.testing.assert_allclose(run(False), run(True))


def test_split_aggregation_survives_executor_loss_between_iterations():
    points, _ = sparse_classification(200, 30, 6, seed=41)
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    rdd = sc.parallelize(points, 8).cache()
    rdd.count()
    model1 = LogisticRegressionWithSGD.train(rdd, 30, num_iterations=2,
                                             aggregation="split")
    sc.kill_executor(1)
    model2 = LogisticRegressionWithSGD.train(rdd, 30, num_iterations=2,
                                             aggregation="split")
    assert np.all(np.isfinite(model2.weights))
    # Same data, same hyperparameters: same model despite the dead executor.
    np.testing.assert_allclose(model1.weights, model2.weights)


def test_lda_and_lr_share_one_context():
    """Two different model families training on one driver, sequentially,
    with virtual time accumulating monotonically."""
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    points, _ = sparse_classification(150, 25, 5, seed=43)
    docs, _ = lda_corpus(100, 40, 4, 30, seed=44)

    lr_rdd = sc.parallelize(points, 8).cache()
    lr_rdd.count()
    t0 = sc.now
    LogisticRegressionWithSGD.train(lr_rdd, 25, num_iterations=2)
    t1 = sc.now
    lda_rdd = sc.parallelize(docs, 8).cache()
    lda_rdd.count()
    LDA(k=4, num_iterations=2).fit(lda_rdd, 40)
    t2 = sc.now
    assert t0 < t1 < t2


def test_breakdown_recorder_composes_with_microbench():
    sc = SparkerContext(ClusterConfig.bic(num_nodes=2))
    n = sc.cluster.total_cores
    data = [SizedPayload(np.ones(32), sim_bytes=4 * MB) for _ in range(n)]
    rdd = sc.parallelize(data, n).cache()
    rdd.count()
    recorder = BreakdownRecorder(sc)
    rdd.tree_aggregate(lambda: SizedPayload(np.zeros(32), sim_bytes=4 * MB),
                       lambda a, x: a.merge_inplace(x),
                       lambda a, b: a.merge(b))
    b = recorder.finish()
    assert b.aggregation == pytest.approx(b.total, rel=0.05)


def test_virtual_time_ordering_across_engines():
    """For a reduction-dominated job, split < tree+imm < tree in simulated
    time on a multi-node cluster."""
    times = {}
    for backend in ("tree", "tree_imm", "split"):
        sc = SparkerContext(ClusterConfig.bic(num_nodes=4))
        n = sc.cluster.total_cores
        data = [SizedPayload(np.ones(64), sim_bytes=64 * MB)
                for _ in range(n)]
        rdd = sc.parallelize(data, n).cache()
        rdd.count()
        t0 = sc.now
        zero = lambda: SizedPayload(np.zeros(64), sim_bytes=64 * MB)  # noqa: E731
        if backend == "split":
            rdd.split_aggregate(zero, lambda a, x: a.merge_inplace(x),
                                lambda u, i, k: u.split(i, k),
                                lambda a, b: a.merge(b),
                                SizedPayload.concat,
                                AggregationSpec(parallelism=4))
        else:
            rdd.tree_aggregate(zero, lambda a, x: a.merge_inplace(x),
                               lambda a, b: a.merge(b),
                               imm=(backend == "tree_imm"))
        times[backend] = sc.now - t0
    assert times["split"] < times["tree_imm"] < times["tree"]


def test_paper_core_claim_micro():
    """The paper's one-sentence story, end to end: tree reduction time
    grows with the cluster; split reduction does not."""
    def reduce_time(nodes, backend):
        sc = SparkerContext(ClusterConfig.bic(num_nodes=nodes))
        n = sc.cluster.total_cores
        data = [SizedPayload(np.ones(64), sim_bytes=32 * MB)
                for _ in range(n)]
        rdd = sc.parallelize(data, n).cache()
        rdd.count()
        zero = lambda: SizedPayload(np.zeros(64), sim_bytes=32 * MB)  # noqa: E731
        if backend == "split":
            rdd.split_aggregate(zero, lambda a, x: a.merge_inplace(x),
                                lambda u, i, k: u.split(i, k),
                                lambda a, b: a.merge(b),
                                SizedPayload.concat)
        else:
            rdd.tree_aggregate(zero, lambda a, x: a.merge_inplace(x),
                               lambda a, b: a.merge(b))
        return sc.stopwatch.total("agg.reduce")

    tree_growth = reduce_time(4, "tree") / reduce_time(1, "tree")
    split_growth = reduce_time(4, "split") / reduce_time(1, "split")
    assert tree_growth > 1.3       # non-scalable reduction
    assert split_growth < 1.3      # scalable reduction
