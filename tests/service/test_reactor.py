"""Cooperator tests: baton passing, determinism, deadlock, error routing,
thread reuse, and the exact handoff and thread-start counts."""

import ctypes
import sys

import pytest

from repro.service import reactor
from repro.service.reactor import Cooperator, ServiceDeadlock
from repro.sim import Environment

from .conftest import open_loop_session


def test_single_worker_runs_in_virtual_time():
    env = Environment()
    coop = Cooperator(env)
    log = []

    def job():
        log.append(("start", env.now))
        env.run(until=env.timeout(5.0))
        log.append(("end", env.now))

    coop.spawn(job, name="j")
    coop.pump()
    assert log == [("start", 0.0), ("end", 5.0)]


def test_workers_interleave_deterministically():
    env = Environment()
    coop = Cooperator(env)
    log = []

    def job(name, delay):
        def body():
            for _ in range(3):
                env.run(until=env.timeout(delay))
                log.append((name, env.now))
        return body

    coop.spawn(job("a", 2.0), name="a")
    coop.spawn(job("b", 3.0), name="b")
    coop.pump()
    # the t=6.0 tie resolves by timeout insertion order: b's second
    # timeout (scheduled at t=3) beats a's third (scheduled at t=4)
    assert log == [("a", 2.0), ("b", 3.0), ("a", 4.0), ("b", 6.0),
                   ("a", 6.0), ("b", 9.0)]


def test_await_already_processed_event_returns_immediately():
    env = Environment()
    coop = Cooperator(env)
    timeout = env.timeout(1.0, value="early")
    env.run(until=timeout)
    got = []
    coop.spawn(lambda: got.append(env.run(until=timeout)), name="j")
    coop.pump()
    assert got == ["early"]


def test_worker_cannot_drain_or_run_to_horizon():
    env = Environment()
    coop = Cooperator(env)
    errors = []

    def job():
        try:
            env.run(until=3.0)
        except RuntimeError as exc:
            errors.append(str(exc))

    coop.spawn(job, name="j")
    coop.pump()
    assert len(errors) == 1 and "owner thread" in errors[0]


def test_deadlock_detected_when_event_never_fires():
    env = Environment()
    coop = Cooperator(env)
    orphan = env.event(name="never")
    coop.spawn(lambda: env.run(until=orphan), name="stuck")
    with pytest.raises(ServiceDeadlock, match="parked"):
        coop.pump()
    # unblock the worker thread so it exits cleanly
    orphan.succeed(None)
    coop.pump()


def test_pump_condition_stops_mid_run():
    env = Environment()
    coop = Cooperator(env)

    def job():
        for _ in range(10):
            env.run(until=env.timeout(1.0))

    coop.spawn(job, name="j")
    coop.pump(lambda: env.now >= 4.0)
    assert 4.0 <= env.now < 10.0
    coop.pump()
    assert env.now == 10.0


def test_failed_event_reraises_in_worker():
    env = Environment()
    coop = Cooperator(env)
    boom = env.event(name="boom")
    caught = []

    def job():
        try:
            env.run(until=boom)
        except ValueError as exc:
            caught.append(exc)

    def fail_it():
        yield env.timeout(1.0)
        boom.fail(ValueError("expected"))

    coop.spawn(job, name="j")
    env.process(fail_it())
    coop.pump()
    assert len(caught) == 1


def test_one_cooperator_per_environment():
    env = Environment()
    Cooperator(env)
    with pytest.raises(RuntimeError, match="already has a cooperator"):
        Cooperator(env)


def test_a_kernel_error_reaches_the_owner_not_the_driving_job():
    env = Environment()
    coop = Cooperator(env)
    caught = []

    def job():
        try:
            env.run(until=env.timeout(5.0))
        except BaseException as exc:  # noqa: BLE001 - must see nothing
            caught.append(exc)

    def explode(_event):
        raise ValueError("kernel")

    env.timeout(1.0).add_callback(explode)
    coop.spawn(job, name="j")
    # the job's thread steps the t=1 callback; the owner raises its error
    with pytest.raises(ValueError, match="kernel"):
        coop.pump()
    assert env.now == 1.0 and caught == []
    coop.pump()
    assert env.now == 5.0 and caught == []


def test_an_escaped_job_error_is_raised_by_the_pump():
    env = Environment()
    coop = Cooperator(env)

    def job():
        env.run(until=env.timeout(1.0))
        raise KeyError("job")

    coop.spawn(job, name="j")
    with pytest.raises(KeyError, match="job"):
        coop.pump()
    coop.pump()  # the thread went idle; the loop is whole


def test_a_job_that_drives_reuses_its_thread_without_a_switch():
    env = Environment()
    coop = Cooperator(env)
    log = []

    def job(i):
        def body():
            env.run(until=env.timeout(1.0))
            log.append((i, env.now))
            if i < 3:
                coop.spawn(job(i + 1), name=f"j{i + 1}")
        return body

    coop.spawn(job(0), name="j0")
    coop.pump()
    assert log == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]
    # one thread runs all four jobs; the baton leaves the owner once
    # and comes back once
    assert (coop.threads_started, coop.handoffs) == (1, 2)
    coop.close()


@pytest.mark.parametrize("stretch, handoffs, threads, bounded", [
    # saturated: up to seven jobs are mid-flight at once, and consecutive
    # activations mostly belong to different jobs
    (1.0, 44, 7, False),
    # paced: jobs rarely overlap, so a job's own wake-up is mostly next
    (10.0, 30, 3, True),
])
def test_handoffs_and_thread_starts_are_pinned(monkeypatch, stretch,
                                               handoffs, threads, bounded):
    # An owner-only pump pays two thread switches per activation (a
    # job's start or a parked job's wake-up) and one thread per job.
    parks = []
    await_event = Cooperator.await_event

    def counted(self, until):
        parks.append(not until.processed)
        return await_event(self, until)

    monkeypatch.setattr(Cooperator, "await_event", counted)
    traffic, cooperator = open_loop_session(stretch)
    jobs = len(traffic.submissions)
    activations = jobs + sum(parks)
    assert (jobs, activations) == (16, 97)
    assert (cooperator.handoffs, cooperator.threads_started) == (
        handoffs, threads)
    if bounded:
        assert cooperator.handoffs <= 0.2 * 2 * activations
        assert cooperator.threads_started <= 0.2 * jobs


def no_c_library(_name):
    raise OSError("no C library")


@pytest.mark.parametrize("probe", [
    no_c_library,
    lambda _name: object(),  # a C library without mallopt
], ids=["no-libc", "no-mallopt"])
def test_a_c_library_without_mallopt_changes_nothing(monkeypatch, probe):
    def outcome():
        traffic, _cooperator = open_loop_session(10.0)
        return traffic.makespan, [
            (handle.status(), handle.result().final_weights.tobytes())
            for _arrival, handle in traffic.submissions]

    capped = outcome()
    monkeypatch.setattr(ctypes, "CDLL", probe)
    assert reactor._one_malloc_arena() is False
    assert outcome() == capped


def test_one_thread_runs_at_a_time_under_a_tiny_switch_interval():
    # Each job does read-modify-write on shared state with no await in
    # between, and forces the interpreter to offer the GIL every
    # microsecond: a second runnable thread would lose updates.
    env = Environment()
    coop = Cooperator(env)
    shared = {"count": 0, "log": []}

    def job(i):
        def body():
            for step in range(6):
                count = shared["count"]
                sum(range(200))
                shared["count"] = count + 1
                shared["log"].append((i, step, env.now))
                env.run(until=env.timeout((i * 7 + step * 3) % 5 + 1))
            if i < 8:
                coop.spawn(job(i + 16), name=f"j{i + 16}")
        return body

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(16):
            coop.spawn(job(i), name=f"j{i}")
        coop.pump()
    finally:
        sys.setswitchinterval(interval)
        coop.close()
    assert shared["count"] == 24 * 6
    times = [t for _i, _step, t in shared["log"]]
    assert times == sorted(times)
    assert coop.threads_started <= 16
