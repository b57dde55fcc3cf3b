"""Action semantics: collect, count, take, reduce, fold, aggregate."""

import pytest

from repro.rdd import JobFailed


def test_count(sc):
    assert sc.parallelize(range(37), 5).count() == 37


def test_first_and_take(sc):
    rdd = sc.parallelize(range(100), 10)
    assert rdd.first() == 0
    assert rdd.take(5) == [0, 1, 2, 3, 4]
    assert rdd.take(0) == []
    assert rdd.take(1000) == list(range(100))


def test_take_scans_incrementally(sc):
    rdd = sc.parallelize(range(100), 10)
    rdd.take(3)
    # Only the first wave of partitions should have been scanned.
    assert sc.dag.stage_log[-1].num_tasks < 10


def test_take_negative_rejected(sc):
    with pytest.raises(ValueError):
        sc.parallelize(range(4), 2).take(-1)


def test_reduce(sc):
    assert sc.parallelize(range(1, 11), 4).reduce(lambda a, b: a * b) == \
        3628800


def test_reduce_with_empty_partitions(sc):
    # 3 elements over 8 slices leaves empty partitions; reduce must skip them.
    assert sc.parallelize([5, 6, 7], 8).reduce(lambda a, b: a + b) == 18


def test_reduce_empty_rdd_raises(sc):
    with pytest.raises(ValueError):
        sc.parallelize([], 4).reduce(lambda a, b: a + b)


def test_fold(sc):
    assert sc.parallelize(range(10), 4).fold(0, lambda a, b: a + b) == 45


def test_sum(sc):
    assert sc.parallelize(range(10), 4).sum() == 45


def test_aggregate(sc):
    # Compute (sum, count) in one pass.
    total, count = sc.parallelize(range(20), 4).aggregate(
        (0, 0),
        lambda acc, x: (acc[0] + x, acc[1] + 1),
        lambda a, b: (a[0] + b[0], a[1] + b[1]))
    assert (total, count) == (190, 20)


def test_foreach_runs_side_effects(sc):
    seen = []
    sc.parallelize(range(5), 2).foreach(seen.append)
    assert sorted(seen) == list(range(5))


def test_tree_reduce(sc):
    assert sc.parallelize(range(64), 16).tree_reduce(lambda a, b: a + b) == \
        sum(range(64))


def test_tree_reduce_empty_raises(sc):
    with pytest.raises(ValueError):
        sc.parallelize([], 4).tree_reduce(lambda a, b: a + b)


def test_tree_aggregate_matches_aggregate(sc):
    rdd = sc.parallelize(range(50), 10)
    seq = lambda acc, x: acc + x * x  # noqa: E731
    comb = lambda a, b: a + b  # noqa: E731
    assert rdd.tree_aggregate(0, seq, comb) == rdd.aggregate(0, seq, comb)


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
        sc.parallelize(range(100), 8).reduce(lambda a, b: a + b)
        return sc.now

    assert run() == run()
