"""Unit tests for the simulation environment and event loop."""

import pytest

from repro.sim import EmptySchedule, Environment, SimulationError
from repro.sim.core import LAZY, NORMAL
from repro.sim.events import TRIGGERED


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(2.5)
    env.run()
    assert env.now == 2.5


def test_run_until_time_stops_exactly():
    env = Environment()
    env.timeout(1.0)
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_past_raises():
    env = Environment()
    env.timeout(3.0)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_process_returns_value():
    env = Environment()

    def body():
        yield env.timeout(1.0)
        return 42

    proc = env.process(body())
    result = env.run(until=proc)
    assert result == 42
    assert env.now == 1.0


def test_process_exception_propagates_through_run():
    env = Environment()

    def body():
        yield env.timeout(1.0)
        raise ValueError("boom")

    proc = env.process(body())
    with pytest.raises(ValueError, match="boom"):
        env.run(until=proc)


def test_yield_on_process_joins():
    env = Environment()

    def child():
        yield env.timeout(3.0)
        return "done"

    def parent():
        value = yield env.process(child())
        return (env.now, value)

    proc = env.process(parent())
    assert env.run(until=proc) == (3.0, "done")


def test_yield_non_event_fails_process():
    env = Environment()

    def body():
        yield 17  # not an event

    proc = env.process(body())
    with pytest.raises(SimulationError, match="non-event"):
        env.run(until=proc)


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def make(tag):
        def body():
            yield env.timeout(1.0)
            order.append(tag)
        return body

    for tag in range(10):
        env.process(make(tag)())
    env.run()
    assert order == list(range(10))


def test_event_succeed_value():
    env = Environment()
    trigger = env.event()

    def waiter():
        value = yield trigger
        return value

    proc = env.process(waiter())

    def firer():
        yield env.timeout(2.0)
        trigger.succeed("payload")

    env.process(firer())
    assert env.run(until=proc) == "payload"
    assert env.now == 2.0


def test_event_fail_raises_in_waiter():
    env = Environment()
    trigger = env.event()

    def waiter():
        try:
            yield trigger
        except RuntimeError as exc:
            return f"caught:{exc}"

    proc = env.process(waiter())
    trigger.fail(RuntimeError("bad"))
    assert env.run(until=proc) == "caught:bad"


def test_double_trigger_is_error():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_fail_requires_exception_instance():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_waiting_on_already_processed_event():
    env = Environment()
    ev = env.timeout(1.0, value="early")
    env.run()

    def late_waiter():
        value = yield ev
        return value

    proc = env.process(late_waiter())
    assert env.run(until=proc) == "early"


def test_run_until_event_from_dry_schedule_raises():
    env = Environment()
    never = env.event()
    with pytest.raises(EmptySchedule):
        env.run(until=never)


def test_value_of_pending_event_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_active_process_visible_during_step():
    env = Environment()
    seen = []

    def body():
        seen.append(env.active_process)
        yield env.timeout(0.0)
        seen.append(env.active_process)

    proc = env.process(body())
    env.run()
    assert seen == [proc, proc]
    assert env.active_process is None


def test_nested_processes_interleave_deterministically():
    env = Environment()
    log = []

    def worker(tag, delay):
        yield env.timeout(delay)
        log.append((env.now, tag))
        yield env.timeout(delay)
        log.append((env.now, tag))

    env.process(worker("a", 1.0))
    env.process(worker("b", 1.5))
    env.run()
    assert log == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b")]


def test_timeout_value_passthrough():
    env = Environment()

    def body():
        got = yield env.timeout(1.0, value="v")
        return got

    proc = env.process(body())
    assert env.run(until=proc) == "v"


def test_process_body_must_be_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_run_until_processed_event_returns_immediately():
    env = Environment()
    early = env.timeout(1.0, value="done")
    env.timeout(10.0)  # later work that must NOT be drained
    env.run(until=early)
    assert env.now == 1.0
    # A second run() on the already-processed event is a pure read: it
    # returns the value without popping anything off the queue.
    assert env.run(until=early) == "done"
    assert env.now == 1.0
    assert env.peek() == 10.0


def test_run_until_detaches_mark_callback_on_dry_schedule():
    env = Environment()
    never = env.event()
    with pytest.raises(EmptySchedule):
        env.run(until=never)
    # The aborted run() must not leave its completion hook behind: a
    # retry would otherwise fire stale closures.
    assert never.callbacks == []


def test_events_scheduled_counts_monotonically():
    env = Environment()
    base = env.events_scheduled
    env.timeout(1.0)
    env.timeout(2.0)
    assert env.events_scheduled == base + 2
    env.run()
    assert env.events_scheduled == base + 2


def test_schedule_at_fires_at_the_exact_instant():
    env = Environment()
    fired = []

    def arm_from(now):
        # Armed from 0.2 for 0.9: through a delay, the clock would read
        # 0.2 + (0.9 - 0.2) = 0.8999999999999999 when it fires.
        assert env.now == now and now + (0.9 - now) != 0.9
        late = env.event()
        late._state = TRIGGERED
        late.add_callback(lambda _e: fired.append(env.now))
        env.schedule_at(late, 0.9)

    env.timeout(0.2).add_callback(lambda _e: arm_from(0.2))
    env.run()
    assert fired == [0.9]


def test_schedule_at_keeps_priority_bands_and_rejects_the_past():
    env = Environment()
    order = []
    for name, priority in [("lazy", LAZY), ("normal", NORMAL)]:
        event = env.event()
        event._state = TRIGGERED
        event.add_callback(lambda _e, name=name: order.append(name))
        env.schedule_at(event, 1.0, priority=priority)
    env.run()
    assert order == ["normal", "lazy"]
    for when in (0.5, float("nan")):
        with pytest.raises(ValueError):
            env.schedule_at(env.event(), when)


# --------------------------------------------------- Event.fire (in place)
def test_fire_runs_waiters_in_the_callers_frame_at_no_kernel_event():
    env = Environment()
    order = []
    handoff = env.event()

    def waiter():
        value = yield handoff
        order.append(("waiter", value, env.now, env.active_process is proc))
        yield env.timeout(1.0)
        order.append(("waiter done", env.now))

    def on_timer(_timer):
        scheduled = env.events_scheduled
        order.append("before")
        handoff.fire("msg")
        order.append("after")
        assert env.events_scheduled == scheduled + 1  # the waiter's timeout
        assert handoff.processed and handoff.value == "msg"

    proc = env.process(waiter())
    env.timeout(2.0).add_callback(on_timer)
    env.run()
    assert order == ["before", ("waiter", "msg", 2.0, True), "after",
                     ("waiter done", 3.0)]


def test_fire_inside_a_process_step_restores_the_active_process():
    env = Environment()
    handoff = env.event()
    seen = []

    def inner():
        yield handoff
        seen.append(env.active_process)

    def outer():
        yield env.timeout(1.0)
        handoff.fire()
        seen.append(env.active_process)

    inner_proc, outer_proc = env.process(inner()), env.process(outer())
    env.run()
    assert seen == [inner_proc, outer_proc] and env.active_process is None


def test_fire_decides_the_event_once():
    env = Environment()
    for first, second in [("fire", "fire"), ("fire", "succeed"),
                          ("succeed", "fire")]:
        event = env.event()
        getattr(event, first)(1)
        with pytest.raises(SimulationError):
            getattr(event, second)(2)
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("late"))
        assert event.value == 1


def test_callback_added_after_fire_takes_the_shadow_path():
    env = Environment()
    event = env.event()
    seen = []
    env.timeout(1.0).add_callback(lambda _t: event.fire(7))
    env.run()
    scheduled = env.events_scheduled
    event.add_callback(lambda e: seen.append((e.value, env.now)))
    assert seen == [] and env.events_scheduled == scheduled + 1
    env.run()
    assert seen == [(7, 1.0)]

    # ... and so does a process that yields it
    def late():
        return (yield event)

    assert env.run(until=env.process(late())) == 7


def test_run_until_an_event_fired_in_place_returns_its_value():
    env = Environment()
    event = env.event()
    order = []
    env.timeout(1.0).add_callback(
        lambda _t: (event.fire("done"), order.append("rest of the entry")))
    env.timeout(1.0).add_callback(lambda _t: order.append("next entry"))
    assert env.run(until=event) == "done"
    # the entry that fired it ran to its end; nothing after it did
    assert order == ["rest of the entry"] and env.now == 1.0
    assert env.run(until=event) == "done"  # processed: returns at once
