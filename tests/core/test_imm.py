"""Tests for in-memory merge: the mutable object manager and its
stage-restart failure semantics (paper §3.2)."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core.imm import StaleMergeError
from repro.rdd import SparkerContext


@pytest.fixture
def sc():
    return SparkerContext(ClusterConfig.laptop(num_nodes=2))


def merges(manager, object_id):
    """How many merges the held object has taken (0 for none held)."""
    entry = manager._entries.get(object_id)
    return 0 if entry is None else entry.merge_count


def epoch(manager, object_id):
    """The aggregation epoch the held object is fenced at (0 for none)."""
    entry = manager._entries.get(object_id)
    return 0 if entry is None else entry.epoch


def run_merge(sc, executor, object_id, attempt, value, op):
    proc = sc.env.process(
        executor.object_manager.merge(object_id, attempt, value, op))
    return sc.env.run(until=proc)


def test_first_merge_stores_value(sc):
    executor = sc.executors[0]
    run_merge(sc, executor, (0, 0), 0, 10, lambda a, b: a + b)
    assert executor.object_manager.get((0, 0)) == 10
    assert merges(executor.object_manager, (0, 0)) == 1


def test_merges_accumulate(sc):
    executor = sc.executors[0]
    for v in (1, 2, 3):
        run_merge(sc, executor, (0, 0), 0, v, lambda a, b: a + b)
    assert executor.object_manager.get((0, 0)) == 6
    assert merges(executor.object_manager, (0, 0)) == 3


def test_clear_resets_object(sc):
    executor = sc.executors[0]
    run_merge(sc, executor, (0, 0), 0, 5, lambda a, b: a + b)
    executor.object_manager.clear((0, 0))
    assert executor.object_manager.get((0, 0)) is None
    assert merges(executor.object_manager, (0, 0)) == 0


def test_stale_attempt_rejected(sc):
    executor = sc.executors[0]
    run_merge(sc, executor, (0, 0), 1, 5, lambda a, b: a + b)  # attempt 1
    with pytest.raises(StaleMergeError):
        run_merge(sc, executor, (0, 0), 0, 7, lambda a, b: a + b)
    assert executor.object_manager.get((0, 0)) == 5


def test_new_attempt_resets_value(sc):
    executor = sc.executors[0]
    run_merge(sc, executor, (0, 0), 0, 5, lambda a, b: a + b)
    run_merge(sc, executor, (0, 0), 1, 7, lambda a, b: a + b)
    assert executor.object_manager.get((0, 0)) == 7


def test_merge_charges_virtual_time(sc):
    executor = sc.executors[0]
    big = np.ones(1 << 16)
    run_merge(sc, executor, (0, 0), 0, big, lambda a, b: a + b)
    t0 = sc.env.now
    run_merge(sc, executor, (0, 0), 0, big.copy(), lambda a, b: a + b)
    assert sc.env.now > t0  # second merge paid merge-bandwidth time


def test_concurrent_merges_serialize_under_lock(sc):
    executor = sc.executors[0]
    order = []

    def slow_op(a, b):
        order.append("merge")
        return a + b

    procs = [
        sc.env.process(executor.object_manager.merge(
            (0, 0), 0, np.ones(1 << 14), slow_op))
        for _ in range(4)
    ]
    for proc in procs:
        sc.env.run(until=proc)
    np.testing.assert_allclose(executor.object_manager.get((0, 0)),
                               np.full(1 << 14, 4.0))
    assert len(order) == 3  # first merge just stores


# --------------------------------------------------- reduced-result stage
def test_run_reduced_job_merges_per_executor(sc):
    rdd = sc.parallelize(range(40), 8)
    holders = sc.run_reduced_job(
        rdd, lambda _i, data, _ctx: sum(data), lambda a, b: a + b)
    total = sum(sc.executor_by_id(eid).object_manager.get(oid)
                for eid, oid in holders)
    assert total == sum(range(40))
    # Fewer holders than partitions: merging happened inside executors.
    assert len(holders) <= len(sc.executors)


def test_reduced_job_task_failure_restarts_whole_stage(sc):
    """Paper §3.2: under IMM any task failure cleans the shared value and
    resubmits the stage; the final result must still be exact."""
    attempts = {"count": 0}

    def flaky(_i, data, _ctx):
        attempts["count"] += 1
        if attempts["count"] == 3:  # third task of the first wave dies
            raise RuntimeError("injected task failure")
        return sum(data)

    rdd = sc.parallelize(range(40), 8)
    holders = sc.run_reduced_job(rdd, flaky, lambda a, b: a + b)
    total = sum(sc.executor_by_id(eid).object_manager.get(oid)
                for eid, oid in holders)
    assert total == sum(range(40))
    # The whole stage reran: strictly more than 8 task executions.
    assert attempts["count"] > 8
    stage_attempts = [s for s in sc.dag.stage_log
                      if s.kind == "reduced_result"]
    assert len(stage_attempts) >= 2


def test_reduced_job_gives_up_after_max_attempts(sc):
    from repro.rdd import JobFailed

    def always_fails(_i, _data, _ctx):
        raise RuntimeError("hopeless")

    with pytest.raises(JobFailed):
        sc.run_reduced_job(sc.parallelize(range(8), 4), always_fails,
                           lambda a, b: a + b)


def test_executor_kill_clears_object_manager(sc):
    executor = sc.executors[0]
    run_merge(sc, executor, (0, 0), 0, 5, lambda a, b: a + b)
    executor.kill()
    assert executor.object_manager.get((0, 0)) is None


# ---------------------------------------------------------- epoch fencing
def run_absorb(sc, executor, object_id, epoch, value, op):
    proc = sc.env.process(
        executor.object_manager.absorb(object_id, epoch, value, op))
    return sc.env.run(until=proc)


def test_fenced_object_rejects_task_merges(sc):
    executor = sc.executors[0]
    run_merge(sc, executor, (0, 0), 0, 5, lambda a, b: a + b)
    executor.object_manager.fence((0, 0), 1)
    with pytest.raises(StaleMergeError):
        run_merge(sc, executor, (0, 0), 0, 7, lambda a, b: a + b)
    assert executor.object_manager.get((0, 0)) == 5


def test_fence_is_monotonic_and_validated(sc):
    manager = sc.executors[0].object_manager
    run_merge(sc, sc.executors[0], (0, 0), 0, 1, lambda a, b: a + b)
    manager.fence((0, 0), 3)
    manager.fence((0, 0), 1)  # stale fence: no retreat
    assert epoch(manager, (0, 0)) == 3
    with pytest.raises(ValueError):
        manager.fence((0, 0), 0)


def test_fence_unknown_object_is_noop(sc):
    manager = sc.executors[0].object_manager
    manager.fence((9, 9), 2)
    assert epoch(manager, (9, 9)) == 0


def test_absorb_merges_at_matching_epoch(sc):
    executor = sc.executors[0]
    run_merge(sc, executor, (0, 0), 0, 5, lambda a, b: a + b)
    executor.object_manager.fence((0, 0), 1)
    run_absorb(sc, executor, (0, 0), 1, 7, lambda a, b: a + b)
    assert executor.object_manager.get((0, 0)) == 12
    assert merges(executor.object_manager, (0, 0)) == 2


def test_absorb_at_stale_epoch_rejected(sc):
    executor = sc.executors[0]
    run_merge(sc, executor, (0, 0), 0, 5, lambda a, b: a + b)
    executor.object_manager.fence((0, 0), 2)
    with pytest.raises(StaleMergeError):
        run_absorb(sc, executor, (0, 0), 1, 7, lambda a, b: a + b)
    assert executor.object_manager.get((0, 0)) == 5


def test_absorb_into_unknown_object_rejected(sc):
    executor = sc.executors[0]
    with pytest.raises(StaleMergeError):
        run_absorb(sc, executor, (4, 4), 1, 7, lambda a, b: a + b)
