"""Tests for splitAggregate — the paper's contribution (Figures 6/7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MB, ClusterConfig
from repro.core import AggregationSpec
from repro.ml.aggregators import (
    FlatAggregator,
    concat_op,
    reduce_op,
    split_op,
)
from repro.rdd import SparkerContext
from repro.serde import SizedPayload


@pytest.fixture
def sc():
    return SparkerContext(ClusterConfig.laptop(num_nodes=2))


def P(parallelism):
    return AggregationSpec(parallelism=parallelism)


def payload_split_args():
    return dict(
        seq_op=lambda a, x: a.merge_inplace(x),
        split_op=lambda u, i, n: u.split(i, n),
        reduce_op=lambda a, b: a.merge(b),
        concat_op=SizedPayload.concat,
    )


def test_split_aggregate_exact_sum(sc):
    data = [SizedPayload(np.full(32, float(i))) for i in range(20)]
    rdd = sc.parallelize(data, 8)
    result = rdd.split_aggregate(
        lambda: SizedPayload(np.zeros(32)), spec=P(2),
        **payload_split_args())
    np.testing.assert_allclose(result.data,
                               np.sum([d.data for d in data], axis=0))


def test_split_matches_tree_aggregate(sc):
    data = [SizedPayload(np.arange(16, dtype=float) * i) for i in range(12)]
    rdd = sc.parallelize(data, 6).cache()
    rdd.count()
    zero = lambda: SizedPayload(np.zeros(16))  # noqa: E731
    tree = rdd.tree_aggregate(zero, lambda a, x: a.merge_inplace(x),
                              lambda a, b: a.merge(b))
    split = rdd.split_aggregate(zero, spec=P(3),
                                **payload_split_args())
    np.testing.assert_allclose(tree.data, split.data)


def test_split_aggregate_empty_rdd(sc):
    rdd = sc.parallelize([], 4)
    result = rdd.split_aggregate(
        lambda: SizedPayload(np.zeros(8)), spec=P(2),
        **payload_split_args())
    np.testing.assert_allclose(result.data, np.zeros(8))


def test_split_aggregate_parallelism_validation(sc):
    rdd = sc.parallelize([SizedPayload(np.zeros(4))], 1)
    with pytest.raises(ValueError):
        rdd.split_aggregate(lambda: SizedPayload(np.zeros(4)),
                            spec=P(0), **payload_split_args())


def test_split_aggregate_uses_reduced_result_and_spawn_stages(sc):
    data = [SizedPayload(np.ones(8)) for _ in range(16)]
    rdd = sc.parallelize(data, 8)
    rdd.split_aggregate(lambda: SizedPayload(np.zeros(8)), spec=P(2),
                        **payload_split_args())
    kinds = [s.kind for s in sc.dag.stage_log]
    names = [s.rdd_name for s in sc.dag.stage_log]
    assert "reduced_result" in kinds
    assert "SpawnRDD" in names
    # No shuffle at all: the scalable reduction replaced the tree.
    assert "shuffle_map" not in kinds


def test_split_aggregate_distinct_u_and_v_types(sc):
    """Figure 7's point: aggregator type U (FlatAggregator) differs from
    segment type V (AggregatorSegment); merge_op bridges the IMM merge."""
    from repro.ml.linalg import LabeledPoint, SparseVector

    points = [LabeledPoint(1.0, SparseVector(10, [i % 10], [1.0]))
              for i in range(30)]
    rdd = sc.parallelize(points, 6)

    def seq(agg: FlatAggregator, p: LabeledPoint) -> FlatAggregator:
        p.features.add_to(agg.payload)
        agg.add_stats(0.5, 1.0)
        return agg

    result = rdd.split_aggregate(
        lambda: FlatAggregator(10), seq, split_op, reduce_op, concat_op,
        spec=P(2), merge_op=lambda a, b: a.merge(b))
    assert isinstance(result, FlatAggregator)
    np.testing.assert_allclose(result.payload, np.full(10, 3.0))
    assert result.weight_sum == 30
    assert result.loss_sum == pytest.approx(15.0)


def test_split_aggregate_default_merge_for_u_equals_v(sc):
    """When U == V structurally, merge_op may be omitted (derived from
    splitOp + reduceOp on the whole object)."""
    data = [SizedPayload(np.full(8, 2.0)) for _ in range(10)]
    rdd = sc.parallelize(data, 5)
    result = rdd.split_aggregate(
        lambda: SizedPayload(np.zeros(8)), spec=P(2),
        **payload_split_args())
    np.testing.assert_allclose(result.data, np.full(8, 20.0))


def test_split_aggregate_cleans_up_object_managers(sc):
    data = [SizedPayload(np.ones(8)) for _ in range(8)]
    rdd = sc.parallelize(data, 8)
    rdd.split_aggregate(lambda: SizedPayload(np.zeros(8)), spec=P(2),
                        **payload_split_args())
    for executor in sc.executors:
        assert not executor.object_manager._entries


def test_split_scales_better_than_tree_for_large_aggregators():
    """Figure 16's headline at micro scale: split beats tree for big
    messages on a multi-node cluster, and by more as the cluster grows."""
    from repro.cluster import ClusterConfig

    def run(nodes, method):
        sc = SparkerContext(ClusterConfig.bic(num_nodes=nodes))
        n = sc.cluster.total_cores
        data = [SizedPayload(np.ones(64), sim_bytes=32 * MB)
                for _ in range(n)]
        rdd = sc.parallelize(data, n).cache()
        rdd.count()
        zero = lambda: SizedPayload(np.zeros(64), sim_bytes=32 * MB)  # noqa: E731
        t0 = sc.now
        if method == "tree":
            rdd.tree_aggregate(zero, lambda a, x: a.merge_inplace(x),
                               lambda a, b: a.merge(b))
        else:
            rdd.split_aggregate(zero, spec=P(4), **payload_split_args())
        return sc.now - t0

    tree_2, split_2 = run(2, "tree"), run(2, "split")
    assert split_2 < tree_2
    tree_4, split_4 = run(4, "tree"), run(4, "split")
    assert tree_4 / split_4 > tree_2 / split_2  # advantage grows with scale


def test_stopwatch_split_phases(sc):
    data = [SizedPayload(np.ones(8)) for _ in range(8)]
    rdd = sc.parallelize(data, 8)
    rdd.split_aggregate(lambda: SizedPayload(np.zeros(8)), spec=P(2),
                        **payload_split_args())
    assert sc.stopwatch.total("agg.compute") > 0
    assert sc.stopwatch.total("agg.reduce") > 0


@settings(max_examples=10, deadline=None)
@given(n_items=st.integers(1, 30), elems=st.integers(1, 64),
       slices=st.integers(1, 8), parallelism=st.integers(1, 4),
       seed=st.integers(0, 100))
def test_split_aggregate_property_exact(n_items, elems, slices, parallelism,
                                        seed):
    """Property: splitAggregate == elementwise sum for any shape."""
    rng = np.random.default_rng(seed)
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    data = [SizedPayload(rng.integers(-50, 50, elems).astype(float))
            for _ in range(n_items)]
    rdd = sc.parallelize(data, slices)
    result = rdd.split_aggregate(
        lambda: SizedPayload(np.zeros(elems)), spec=P(parallelism),
        **payload_split_args())
    np.testing.assert_allclose(
        result.data, np.sum([d.data for d in data], axis=0))
