"""Fault injection: executor loss, lineage recovery, shuffle refetch."""

import operator

import pytest

from repro.cluster import ClusterConfig
from repro.rdd import ExecutorLost, SparkerContext

from .conftest import combine_by_key


def test_kill_executor_before_job_reroutes_tasks(sc):
    sc.executor_by_id(0).kill()
    assert sc.parallelize(range(20), 4).count() == 20
    dead = sc.executor_by_id(0)
    assert dead.tasks_run == 0


def test_cached_blocks_lost_on_executor_death_recompute(sc):
    rdd = sc.parallelize(range(12), 4).cache()
    rdd.count()
    victims = {rdd.preferred_executors(i)[0] for i in range(4)}
    victim = sorted(victims)[0]
    sc.executor_by_id(victim).kill()
    # Lineage recompute: the collect still returns the full data.
    assert rdd.collect() == list(range(12))
    # Blocks re-registered on live executors only.
    for index in range(4):
        for holder in rdd.preferred_executors(index):
            assert sc.executor_by_id(holder).alive


def test_shuffle_outputs_lost_triggers_map_stage_resubmit(sc):
    shuffled = combine_by_key(
        sc.parallelize([(i % 3, 1) for i in range(30)], 4), operator.add)
    shuffled.collect()
    # Find an executor holding map outputs and kill it.
    holder = next(e for e in sc.executors if e.shuffle_store._buckets)
    stage_count = len(sc.dag.stage_log)
    holder.kill()
    assert sorted(shuffled.collect()) == [(0, 10), (1, 10), (2, 10)]
    kinds = [s.kind for s in sc.dag.stage_log[stage_count:]]
    assert "shuffle_map" in kinds  # parent stage was resubmitted


def test_all_executors_dead_fails_job(sc):
    for executor in sc.executors:
        executor.kill()
    with pytest.raises(ExecutorLost):
        sc.parallelize(range(4), 2).count()


def test_kill_is_idempotent(sc):
    sc.executor_by_id(0).kill()
    sc.executor_by_id(0).kill()
    assert not sc.executor_by_id(0).alive


def test_unknown_executor_id(sc):
    with pytest.raises(KeyError):
        sc.executor_by_id(999)


def test_mid_job_executor_loss_retries_tasks():
    """Kill an executor while its tasks are in flight: the scheduler must
    retry the interrupted attempts elsewhere and still return correct
    results."""
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    rdd = sc.parallelize(range(40), 8)

    def killer():
        yield sc.env.timeout(0.015)  # inside the first wave of tasks
        sc.executor_by_id(0).kill()

    sc.env.process(killer())
    assert rdd.count() == 40
    assert not sc.executor_by_id(0).alive


def test_results_identical_with_and_without_faults():
    def run(inject):
        sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
        if inject:
            sc.executor_by_id(1).kill()
        return sorted(combine_by_key(
            sc.parallelize([(i % 4, i) for i in range(40)], 8),
            operator.add).collect())

    assert run(False) == run(True)


def test_fault_slows_down_but_completes():
    def elapsed(inject):
        sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
        rdd = sc.parallelize(range(64), 8).cache()
        rdd.count()
        if inject:
            holder = rdd.preferred_executors(0)[0]
            sc.executor_by_id(holder).kill()
        t0 = sc.now
        rdd.collect()
        return sc.now - t0

    assert elapsed(True) >= elapsed(False)
