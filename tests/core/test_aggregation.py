"""Tests for treeAggregate / treeReduce (Spark-faithful baseline)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.core.aggregation import fold_partition, fresh_zero, tree_aggregate
from repro.rdd import (
    ELEMENT_OVERHEAD,
    Costed,
    SparkerContext,
    TaskContext,
    cost_of,
)


@pytest.fixture
def sc():
    return SparkerContext(ClusterConfig.laptop(num_nodes=2))


def test_tree_aggregate_scalar_sum(sc):
    rdd = sc.parallelize(range(100), 8)
    assert rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b) == \
        4950


def test_tree_aggregate_empty_rdd_identity_zero(sc):
    rdd = sc.parallelize([], 4)
    assert rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b) == 0


def test_tree_aggregate_nonidentity_zero_folds_per_partition(sc):
    """Spark-faithful quirk: zeroValue is folded once per partition, so a
    non-identity zero multiplies (same as Apache Spark's treeAggregate)."""
    rdd = sc.parallelize([], 4)
    assert rdd.tree_aggregate(7, lambda a, x: a + x,
                              lambda a, b: a + b) == 28


def test_tree_aggregate_array_zero_not_aliased(sc):
    """A mutable zero value must be copied per task (the reason Spark
    serializes zeroValue per task)."""
    zero = np.zeros(4)
    data = [np.ones(4) for _ in range(10)]
    rdd = sc.parallelize(data, 5)
    result = rdd.tree_aggregate(
        zero,
        lambda acc, x: acc.__iadd__(x),
        lambda a, b: a + b)
    np.testing.assert_allclose(result, np.full(4, 10.0))
    np.testing.assert_allclose(zero, 0.0)  # driver's copy untouched


def test_tree_aggregate_depth_levels(sc):
    rdd = sc.parallelize(range(64), 16)
    for depth in (1, 2, 3):
        assert rdd.tree_aggregate(0, lambda a, x: a + x,
                                  lambda a, b: a + b, depth=depth) == 2016


def test_tree_aggregate_depth_validation(sc):
    rdd = sc.parallelize(range(4), 2)
    with pytest.raises(ValueError):
        rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b,
                           depth=0)


def test_tree_aggregate_uses_intermediate_stage_for_many_partitions():
    sc = SparkerContext(ClusterConfig.bic(num_nodes=2))
    rdd = sc.parallelize(range(480), 48)
    rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b)
    kinds = [s.kind for s in sc.dag.stage_log]
    # 48 partitions, depth 2 -> scale 7 -> exactly one tree level (one
    # shuffle), then the final result stage.
    assert kinds.count("shuffle_map") == 1
    assert kinds[-1] == "result"


def test_tree_aggregate_deeper_tree_adds_levels():
    # depth=3 with 512 partitions: scale 8 -> two tree levels.
    sc = SparkerContext(ClusterConfig.bic(num_nodes=2))
    rdd = sc.parallelize(range(512), 512)
    rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b, depth=3)
    kinds = [s.kind for s in sc.dag.stage_log]
    assert kinds.count("shuffle_map") == 2


def test_tree_aggregate_single_partition_has_no_shuffle(sc):
    rdd = sc.parallelize(range(10), 1)
    rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b)
    assert all(s.kind == "result" for s in sc.dag.stage_log)


def test_imm_variant_matches_plain(sc):
    data = [np.full(8, float(i)) for i in range(24)]
    rdd = sc.parallelize(data, 8).cache()
    rdd.count()
    zero = lambda: np.zeros(8)  # noqa: E731
    plain = rdd.tree_aggregate(zero, lambda a, x: a + x, lambda a, b: a + b)
    imm = rdd.tree_aggregate(zero, lambda a, x: a + x, lambda a, b: a + b,
                             imm=True)
    np.testing.assert_allclose(plain, imm)


def test_imm_merges_inside_executors(sc):
    data = [np.ones(4) for _ in range(16)]
    rdd = sc.parallelize(data, 16)
    rdd.tree_aggregate(lambda: np.zeros(4), lambda a, x: a + x,
                       lambda a, b: a + b, imm=True)
    kinds = [s.kind for s in sc.dag.stage_log]
    assert "reduced_result" in kinds


def test_stopwatch_records_phases(sc):
    rdd = sc.parallelize(range(100), 8)
    rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b)
    assert sc.stopwatch.total("agg.compute") > 0
    assert sc.stopwatch.total("agg.reduce") > 0


def test_reduction_time_grows_with_cluster_for_big_aggregators():
    """The paper's core observation (§2.3): tree-aggregation reduction time
    *increases* with the cluster size for large aggregators."""
    from repro.serde import SizedPayload
    from repro.cluster import MB

    def reduce_time(nodes):
        sc = SparkerContext(ClusterConfig.bic(num_nodes=nodes))
        n = sc.cluster.total_cores
        data = [SizedPayload(np.ones(64), sim_bytes=64 * MB)
                for _ in range(n)]
        rdd = sc.parallelize(data, n).cache()
        rdd.count()
        rdd.tree_aggregate(
            lambda: SizedPayload(np.zeros(64), sim_bytes=64 * MB),
            lambda a, x: a.merge_inplace(x), lambda a, b: a.merge(b))
        return sc.stopwatch.total("agg.reduce")

    assert reduce_time(4) > reduce_time(1)


# ------------------------------------------------------------- fresh_zero
def test_fresh_zero_callable_factory():
    calls = []

    def factory():
        calls.append(1)
        return [0]

    a, b = fresh_zero(factory), fresh_zero(factory)
    assert a is not b
    assert len(calls) == 2


def test_fresh_zero_ndarray_copied():
    z = np.zeros(3)
    assert fresh_zero(z) is not z


def test_fresh_zero_scalar_passthrough():
    assert fresh_zero(5) == 5
    assert fresh_zero(None) is None
    assert fresh_zero("x") == "x"


def test_fresh_zero_copyable_object():
    class Z:
        def __init__(self):
            self.copied = False

        def copy(self):
            out = Z()
            out.copied = True
            return out

    assert fresh_zero(Z()).copied


def test_fresh_zero_deepcopy_fallback():
    class Plain:
        def __init__(self):
            self.data = [1, 2]

    z = Plain()
    out = fresh_zero(z)
    assert out is not z
    assert out.data == [1, 2]
    out.data.append(3)
    assert z.data == [1, 2]


@settings(max_examples=20, deadline=None)
@given(data=st.lists(st.integers(-1000, 1000), min_size=1, max_size=80),
       slices=st.integers(1, 16), depth=st.integers(1, 3))
def test_tree_aggregate_equals_builtin_sum(data, slices, depth):
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=1))
    rdd = sc.parallelize(data, slices)
    result = rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b,
                                depth=depth)
    assert result == sum(data)


# ---------------------------------------------------------- fold_partition
@pytest.mark.parametrize("seq_op", [
    Costed(lambda a, x: a + x, lambda a, x: 1e-7 * x + 1e-9 * a),
    Costed(lambda a, x: a + x, 3.3e-7),
    lambda a, x: a + x,
], ids=["costed-fn", "costed-constant", "plain"])
def test_fold_partition_charges_in_per_element_order(seq_op):
    """The one element fold every stage-1 runs (tree, tree+IMM, split):
    ``charged + c0 + c1 + ...``, from whatever was already charged."""
    data = [3, 1, 4, 1, 5, 9, 2, 6]
    reference = TaskContext(0, 0, 0, None)
    reference.charged = 0.1
    acc = 10
    for x in data:
        reference.charge(cost_of(seq_op, acc, x) + ELEMENT_OVERHEAD)
        acc = seq_op(acc, x)

    ctx = TaskContext(0, 0, 0, None)
    ctx.charged = 0.1
    assert fold_partition(10, data, seq_op, ctx) == acc
    assert ctx.charged == reference.charged


def test_fold_partition_prefers_a_declared_whole_partition_fold():
    class Whole(Costed):
        def fold_partition(self, acc, data, ctx):
            ctx.charge(1.0)
            return acc + sum(data)

    ctx = TaskContext(0, 0, 0, None)
    seq_op = Whole(lambda a, x: pytest.fail("per-element path taken"), 0.0)
    assert fold_partition(1, [2, 3], seq_op, ctx) == 6
    assert ctx.charged == 1.0


@pytest.mark.parametrize("mode", ["tree", "tree_imm", "split"])
def test_every_aggregation_folds_through_fold_partition(sc, mode):
    class Whole(Costed):
        folded = 0

        def fold_partition(self, acc, data, ctx):
            type(self).folded += 1
            return acc + sum(data)

    seq_op = Whole(lambda a, x: a + x, 0.0)
    rdd = sc.parallelize(range(40), 4)
    if mode == "split":
        result = rdd.split_aggregate(
            0, seq_op, lambda u, i, n: u if i == 0 else 0,
            lambda a, b: a + b, sum)
    else:
        result = tree_aggregate(rdd, 0, seq_op, lambda a, b: a + b,
                                imm=(mode == "tree_imm"))
    assert result == sum(range(40)) and Whole.folded == 4
