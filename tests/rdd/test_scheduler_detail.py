"""Scheduler detail tests: stage log, retries, locality decisions."""

import operator

import pytest

from repro.rdd import MapPartitionsRDD
from repro.rdd.scheduler import MAX_TASK_FAILURES

from .conftest import combine_by_key


def test_stage_log_records_every_stage(sc):
    combine_by_key(sc.parallelize([(1, 1)], 2), operator.add).collect()
    kinds = [s.kind for s in sc.dag.stage_log]
    assert kinds == ["shuffle_map", "result"]
    for stage in sc.dag.stage_log:
        assert stage.finished_at >= stage.submitted_at
        assert stage.duration >= 0


def test_unfinished_stage_has_no_duration():
    """A submitted-but-never-finished stage reports None, not NaN, so a
    total over the log has to leave it out on purpose."""
    from repro.rdd.scheduler import StageInfo

    open_stage = StageInfo(stage_id=9, kind="result", rdd_name="map@9",
                           num_tasks=4, attempt=0, submitted_at=1.5)
    assert open_stage.finished_at is None
    assert open_stage.duration is None


def test_stage_ids_unique_and_increasing(sc):
    for _ in range(3):
        sc.parallelize(range(4), 2).count()
    ids = [s.stage_id for s in sc.dag.stage_log]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_flaky_task_retries_until_success(sc):
    attempts = {"n": 0}

    def flaky(x):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise RuntimeError("transient")
        return x

    # One partition so the single flaky call happens on the first task.
    result = sc.parallelize([1], 1).map(flaky).collect()
    assert result == [1]
    assert attempts["n"] == 2


def test_permanent_failure_gives_up(sc):
    def broken(_x):
        raise RuntimeError("permanent")

    with pytest.raises(RuntimeError, match="permanent"):
        sc.parallelize([1], 1).map(broken).collect()


def test_retry_budget_is_bounded(sc):
    calls = {"n": 0}

    def broken(_x):
        calls["n"] += 1
        raise RuntimeError("always")

    with pytest.raises(RuntimeError):
        sc.parallelize([1], 1).map(broken).collect()
    assert calls["n"] == MAX_TASK_FAILURES


def test_retries_prefer_fresh_executors(sc):
    seen = []

    def flaky(x):
        # TaskContext isn't visible here; track via block registration
        # side channel instead: fail twice, then succeed.
        seen.append(1)
        if len(seen) <= 2:
            raise RuntimeError("flaky")
        return x

    assert sc.parallelize([7], 1).map(flaky).collect() == [7]
    assert len(seen) == 3

    # a live executor that fails every attempt: each partition that meets
    # it retries on another one and never goes back
    bad = 1
    ran = []

    def doubled(index, data, ctx):
        ran.append((index, ctx.executor.executor_id))
        if ctx.executor.executor_id == bad:
            raise RuntimeError("bad executor")
        return [2 * x for x in data]

    clean = [2 * x for x in range(32)]
    assert MapPartitionsRDD(sc.parallelize(range(32), 8),
                            doubled).collect() == clean
    met = [index for index, executor_id in ran if executor_id == bad]
    assert met
    assert len(met) == len(set(met))
    assert len(ran) == 8 + len(met)


def test_failure_in_shuffle_map_stage_retries(sc):
    attempts = {"n": 0}

    def flaky_kv(x):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise RuntimeError("map-side flake")
        return (x % 2, x)

    result = combine_by_key(sc.parallelize(range(6), 1).map(flaky_kv),
                            operator.add).collect()
    assert sorted(result) == [(0, 6), (1, 9)]


def test_stage_attempt_recorded_on_imm_restart(sc):
    calls = {"n": 0}

    def flaky(_i, data, _ctx):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return sum(data)

    sc.run_reduced_job(sc.parallelize(range(8), 4), flaky,
                       lambda a, b: a + b)
    reduced = [s for s in sc.dag.stage_log if s.kind == "reduced_result"]
    assert [s.attempt for s in reduced] == [0, 1]
    # Same stage id across attempts (it is a resubmission).
    assert len({s.stage_id for s in reduced}) == 1


def test_locality_puts_tasks_on_cached_executors(sc):
    rdd = sc.parallelize(range(8), 4).cache()
    rdd.count()
    holders = {i: rdd.preferred_executors(i)[0] for i in range(4)}
    before = {e.executor_id: e.tasks_run for e in sc.executors}
    rdd.count()
    after = {e.executor_id: e.tasks_run for e in sc.executors}
    ran = {eid for eid in after if after[eid] > before[eid]}
    assert ran == set(holders.values())
