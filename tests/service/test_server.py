"""JobServer tests: lifecycle, the running-job quota, cancellation, shared
cache, teardown."""

import pytest

from repro.cluster import ClusterConfig
from repro.obs import NO_SPAN, RecordingListener
from repro.service import (
    JobServer,
    JobStatus,
    PoolConfig,
)


def make_server(**kwargs):
    return JobServer(ClusterConfig.laptop(), **kwargs)


def count_job(sc, n=64, parts=8):
    def body():
        return sc.parallelize(range(n), parts).count()
    return body


def test_submit_wait_returns_result():
    with make_server() as server:
        record = server.submit(count_job(server.sc), workload="count")
        server.wait(record)
        assert record.status == JobStatus.SUCCEEDED
        assert record.result == 64
        assert record.latency is not None and record.latency > 0


def test_jobs_run_concurrently():
    with make_server() as server:
        records = [server.submit(count_job(server.sc), workload=f"c{i}")
                   for i in range(3)]
        server.drain()
        assert all(r.status == JobStatus.SUCCEEDED for r in records)
        # overlap: each later job started before the earlier one finished
        for earlier, later in zip(records, records[1:]):
            assert later.started < earlier.finished


def test_failure_is_isolated_to_its_job():
    with make_server() as server:
        def bad():
            server.sc.parallelize(range(8), 4).count()
            raise RuntimeError("driver bug")
        failed = server.submit(bad, workload="bad")
        good = server.submit(count_job(server.sc), workload="good")
        server.drain()
        assert failed.status == JobStatus.FAILED
        assert isinstance(failed.exception, RuntimeError)
        assert good.status == JobStatus.SUCCEEDED and good.result == 64
        # the failed job's slots were returned
        for slots in server.arbiter.slots.values():
            assert slots.held == 0


def test_quota_queues_jobs_beyond_max_running():
    pools = {"small": PoolConfig(max_running=1)}
    with make_server(pools=pools) as server:
        first, second, third = (server.submit(count_job(server.sc),
                                              pool="small")
                                for _ in range(3))
        assert first.status == JobStatus.RUNNING
        assert second.status == third.status == JobStatus.QUEUED
        server.drain()
        assert [job.status for job in (first, second, third)] == [
            JobStatus.SUCCEEDED] * 3
        assert first.finished <= second.started


def test_cancel_queued_job_never_runs():
    pools = {"small": PoolConfig(max_running=1)}
    with make_server(pools=pools) as server:
        running = server.submit(count_job(server.sc), pool="small")
        queued = server.submit(count_job(server.sc), pool="small")
        assert server.cancel(queued)
        server.drain()
        assert queued.status == JobStatus.CANCELLED
        assert queued.started is None
        assert running.status == JobStatus.SUCCEEDED


def test_cancel_mid_stage_cleans_up():
    with make_server() as server:
        sc = server.sc
        env = sc.env

        def long_job():
            rdd = sc.parallelize(range(256), 8).cache()
            total = 0
            for _ in range(50):
                total = sc.reduce(rdd, lambda a, b: a + b)
            return total

        victim = server.submit(long_job, workload="victim")
        bystander = server.submit(count_job(sc), workload="bystander")
        # run until the victim is mid-execution, then cancel it
        server.cooperator.pump(
            lambda: victim.started is not None and env.now > victim.started)
        assert server.cancel(victim, reason="user abort")
        server.drain()
        assert victim.status == JobStatus.CANCELLED
        assert bystander.status == JobStatus.SUCCEEDED
        # lineage cleanup: no IMM object of any engine job the victim's
        # scope submitted survives on any executor
        for job_id in victim.scope.job_ids:
            for executor in sc.executors:
                assert not any(oid[0] == job_id
                               for oid in executor.object_manager._entries)
        # all task slots returned; no parked workers, queue drains clean
        for slots in server.arbiter.slots.values():
            assert slots.held == 0
        # the server still accepts and completes new work
        after = server.submit(count_job(sc), workload="after")
        server.wait(after)
        assert after.result == 64


def test_cancel_finished_job_returns_false():
    with make_server() as server:
        record = server.submit(count_job(server.sc))
        server.wait(record)
        assert not server.cancel(record)


def test_shared_loader_runs_once():
    with make_server() as server:
        calls = []

        def job():
            def loader():
                calls.append(1)
                rdd = server.sc.parallelize(range(64), 8).cache()
                rdd.count()
                return rdd
            rdd = server.shared("dataset", loader)
            return rdd.count()

        records = [server.submit(job) for _ in range(4)]
        server.drain()
        assert [r.result for r in records] == [64] * 4
        assert len(calls) == 1


def test_jobs_can_wait_on_jobs():
    with make_server() as server:
        upstream = server.submit(count_job(server.sc), workload="up")

        def downstream():
            server.wait(upstream)
            return upstream.result * 2

        down = server.submit(downstream, workload="down")
        server.drain()
        assert down.result == 128


def test_close_is_idempotent_and_rejects_new_work():
    server = make_server()
    server.submit(count_job(server.sc))
    server.drain()
    server.close()
    server.close()
    with pytest.raises(RuntimeError, match="closed"):
        server.submit(count_job(server.sc))


def test_teardown_clears_bus_after_mid_job_failure():
    server = make_server()
    sc = server.sc
    seen = []

    def leaky():
        sc.event_bus.subscribe(lambda event: seen.append(event))
        sc.parallelize(range(8), 4).count()
        raise RuntimeError("job died without unsubscribing")

    record = server.submit(leaky)
    server.drain()
    assert record.status == JobStatus.FAILED
    assert seen  # listener was live during the job
    server.close()
    assert not sc.event_bus.active
    before = len(seen)
    # a stopped context emits to nobody
    sc.stop()
    assert len(seen) == before


def test_cancelled_via_handle_exception_type():
    with make_server() as server:
        sc = server.sc

        def long_job():
            for _ in range(100):
                sc.parallelize(range(64), 8).count()

        record = server.submit(long_job)
        server.cooperator.pump(lambda: record.started is not None)
        server.cancel(record)
        server.drain()
        assert record.status == JobStatus.CANCELLED
        assert record.exception is None or isinstance(
            record.exception, BaseException)


def test_tree_aggregate_attributes_its_own_stage_on_a_shared_context():
    # Two tenants start a plain tree aggregation at the same instant: the
    # fast one's first stage opens after the slow one's, and the slow one
    # is still running when the fast one finishes. The fast job must read
    # its compute time off its *own* first stage, not off the first stage
    # opened after it began (the other tenant's, still open: duration None
    # used to kill the job with a TypeError).
    from repro.rdd import Costed

    with make_server() as server:
        sc = server.sc

        def aggregate(parts, cost):
            def body():
                rdd = sc.parallelize(range(8), parts)
                return rdd.tree_aggregate(
                    0, Costed(lambda a, x: a + x, cost), lambda a, b: a + b)
            return body

        slow = server.submit(aggregate(1, 0.5), workload="slow", tenant="a")
        fast = server.submit(aggregate(2, 0.001), workload="fast",
                             tenant="b")
        server.drain()
        assert fast.status == JobStatus.SUCCEEDED, fast.exception
        assert slow.status == JobStatus.SUCCEEDED
        assert fast.result == slow.result == 28
        assert fast.finished < slow.finished
        fast_phases = fast.scope.stopwatch.as_dict()
        slow_phases = slow.scope.stopwatch.as_dict()
        # 4 elements x 1 ms on each of the fast job's two partitions,
        # 8 elements x 0.5 s on the slow job's one
        assert 0.004 <= fast_phases["agg.compute"] < 0.1
        assert 4.0 <= slow_phases["agg.compute"] < 4.1


def test_a_job_start_carries_its_submitters_parent_not_the_drivers():
    # Job A pushes a trace parent, then drives the kernel through job B's
    # JobStart: B's release wakes A, and A's next await steps B's job
    # process. The span B's job records is the one B captured at
    # submission (none), never the stack of the thread that stepped it.
    recorder = RecordingListener()
    with make_server() as server:
        sc = server.sc
        sc.event_bus.subscribe(recorder)
        go = sc.env.event(name="go")
        spans = []

        def job_a():
            spans.append(sc.tracer.new_span())
            sc.tracer.push_parent(spans[0])
            try:
                sc.env.run(until=go)
                sc.env.run(until=sc.env.timeout(1.0))
                return sc.parallelize(range(8), 2).count()
            finally:
                sc.tracer.pop_parent()

        def job_b():
            go.succeed()
            return sc.parallelize(range(8), 2).count()

        a = server.submit(job_a, workload="a")
        b = server.submit(job_b, workload="b")
        server.drain()
    assert a.status == b.status == JobStatus.SUCCEEDED
    (a_job,), (b_job,) = a.scope.job_ids, b.scope.job_ids
    parents = {e.job_id: e.parent_span_id for e in recorder.events
               if e.kind == "job_start"}
    assert parents == {a_job: spans[0], b_job: NO_SPAN}
