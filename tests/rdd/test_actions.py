"""Action semantics: count, the driver-side reduce, foreach, treeAggregate,
and a stopped context's gates."""

import operator

import pytest


def test_count(sc):
    assert sc.parallelize(range(37), 5).count() == 37


def test_reduce(sc):
    assert sc.reduce(sc.parallelize(range(1, 11), 4), operator.mul) == 3628800


def test_reduce_with_empty_partitions(sc):
    # 3 elements over 8 slices leaves empty partitions; reduce must skip them.
    assert sc.reduce(sc.parallelize([5, 6, 7], 8), operator.add) == 18


def test_reduce_empty_rdd_raises(sc):
    with pytest.raises(ValueError):
        sc.reduce(sc.parallelize([], 4), operator.add)


def test_foreach_runs_side_effects(sc):
    seen = []
    sc.parallelize(range(5), 2).foreach(seen.append)
    assert sorted(seen) == list(range(5))


def test_tree_aggregate_matches_python_reference(sc):
    rdd = sc.parallelize(range(50), 10)
    seq = lambda acc, x: acc + x * x  # noqa: E731
    assert rdd.tree_aggregate(0, seq, operator.add) == \
        sum(x * x for x in range(50))


def test_stopped_context_rejects_jobs(sc):
    rdd = sc.parallelize(range(4), 2)
    sc.stop()
    with pytest.raises(RuntimeError):
        rdd.collect()
    with pytest.raises(RuntimeError):
        sc.parallelize([1])


def test_stopped_context_rejects_broadcast(sc):
    sc.stop()
    with pytest.raises(RuntimeError, match="context is stopped"):
        sc.broadcast([1, 2, 3])


def test_actions_are_deterministic_in_time():
    from repro.cluster import ClusterConfig
    from repro.rdd import SparkerContext

    def run():
        sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
        sc.parallelize(range(200), 8).map(lambda x: x + 1).count()
        sc.reduce(sc.parallelize(range(100), 8), operator.add)
        return sc.now

    assert run() == run()
