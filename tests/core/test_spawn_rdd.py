"""Tests for SpawnRDD static scheduling (paper §4.3)."""

import pytest

from repro.cluster import ClusterConfig
from repro.core import SpawnRDD
from repro.rdd import ExecutorLost, JobFailed, SparkerContext


@pytest.fixture
def sc():
    return SparkerContext(ClusterConfig.laptop(num_nodes=2))


def test_tasks_run_exactly_on_listed_executors(sc):
    ran_on = []

    def probe(ctx):
        ran_on.append(ctx.executor.executor_id)
        return ctx.executor.executor_id

    targets = [2, 0, 3]
    rdd = SpawnRDD(sc, [(eid, probe) for eid in targets])
    results = rdd.collect()
    assert results == targets
    assert ran_on == sorted(ran_on, key=lambda e: targets.index(e)) or \
        set(ran_on) == set(targets)


def test_pinned_executor_accessor(sc):
    rdd = SpawnRDD(sc, [(1, lambda ctx: "a"), (3, lambda ctx: "b")])
    assert rdd.pinned_executor(0) == 1
    assert rdd.pinned_executor(1) == 3


def test_empty_task_list_rejected(sc):
    with pytest.raises(ValueError):
        SpawnRDD(sc, [])


def test_dead_pinned_executor_fails_job(sc):
    sc.executor_by_id(1).kill()
    rdd = SpawnRDD(sc, [(1, lambda ctx: "x")])
    with pytest.raises((ExecutorLost, JobFailed)):
        rdd.collect()


def test_from_holders_reads_object_manager(sc):
    holders = sc.run_reduced_job(
        sc.parallelize(range(20), 4),
        lambda _i, data, _ctx: sum(data),
        lambda a, b: a + b)
    spawned = SpawnRDD.from_holders(sc, holders)
    values = spawned.collect()
    assert sum(values) == sum(range(20))


def test_from_holders_fails_after_cleanup(sc):
    holders = sc.run_reduced_job(
        sc.parallelize(range(8), 2),
        lambda _i, data, _ctx: sum(data),
        lambda a, b: a + b)
    SpawnRDD.cleanup_holders(sc, holders)
    spawned = SpawnRDD.from_holders(sc, holders)
    with pytest.raises((ExecutorLost, JobFailed)):
        spawned.collect()


def test_spawn_rdd_composes_with_transformations(sc):
    rdd = SpawnRDD(sc, [(0, lambda ctx: 10), (1, lambda ctx: 20)])
    assert rdd.map(lambda x: x + 1).collect() == [11, 21]
