"""Tests for condition events and process interrupts."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError, all_of


def test_all_of_waits_for_every_event():
    env = Environment()
    a = env.timeout(1.0, value="a")
    b = env.timeout(3.0, value="b")

    def waiter():
        results = yield all_of(env, [a, b])
        return (env.now, results[a], results[b])

    proc = env.process(waiter())
    assert env.run(until=proc) == (3.0, "a", "b")


def test_all_of_empty_fires_immediately():
    env = Environment()

    def waiter():
        results = yield all_of(env, [])
        return results

    proc = env.process(waiter())
    assert env.run(until=proc) == {}
    assert env.now == 0.0


def test_all_of_propagates_child_failure():
    env = Environment()
    good = env.timeout(1.0)
    bad = env.event()

    def failer():
        yield env.timeout(0.5)
        bad.fail(RuntimeError("child failed"))

    env.process(failer())

    def waiter():
        yield all_of(env, [good, bad])

    proc = env.process(waiter())
    with pytest.raises(RuntimeError, match="child failed"):
        env.run(until=proc)


def test_all_of_many_processes():
    env = Environment()

    def worker(n):
        yield env.timeout(float(n))
        return n * n

    procs = [env.process(worker(n)) for n in range(5)]

    def joiner():
        results = yield all_of(env, procs)
        return [results[p] for p in procs]

    join = env.process(joiner())
    assert env.run(until=join) == [0, 1, 4, 9, 16]
    assert env.now == 4.0


def test_interrupt_wakes_sleeping_process():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(100.0)
            return "overslept"
        except Interrupt as intr:
            return ("interrupted", env.now, intr.cause)

    proc = env.process(sleeper())

    def killer():
        yield env.timeout(2.0)
        proc.interrupt("fault")

    env.process(killer())
    assert env.run(until=proc) == ("interrupted", 2.0, "fault")


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_uncaught_interrupt_fails_process():
    env = Environment()

    def sleeper():
        yield env.timeout(100.0)

    proc = env.process(sleeper())
    proc.interrupt("die")
    with pytest.raises(Interrupt):
        env.run(until=proc)


def test_interrupted_process_can_continue():
    env = Environment()

    def resilient():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        return env.now

    proc = env.process(resilient())

    def killer():
        yield env.timeout(5.0)
        proc.interrupt()

    env.process(killer())
    assert env.run(until=proc) == 6.0


def test_stale_target_does_not_resume_interrupted_process():
    env = Environment()
    hits = []

    def sleeper():
        try:
            yield env.timeout(3.0)
            hits.append("timer")
        except Interrupt:
            hits.append("interrupt")
            yield env.timeout(10.0)
        return tuple(hits)

    proc = env.process(sleeper())
    proc.interrupt()
    env.run(until=proc)
    # The original 3s timer must NOT have resumed the process a second time.
    assert hits == ["interrupt"]


def test_is_alive_lifecycle():
    env = Environment()

    def body():
        yield env.timeout(1.0)

    proc = env.process(body())
    assert proc.is_alive
    env.run()
    assert not proc.is_alive
    assert proc.processed and proc.exception is None


def test_critical_process_failure_crashes_simulation():
    env = Environment()

    def daemon():
        yield env.timeout(1.0)
        raise RuntimeError("infrastructure bug")

    env.process(daemon(), critical=True)
    with pytest.raises(RuntimeError, match="infrastructure bug"):
        env.run()


def test_non_critical_failure_is_contained():
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        raise RuntimeError("task failed")

    proc = env.process(worker())
    env.run()  # does not raise; failure is held in the process event
    assert isinstance(proc.exception, RuntimeError)
