"""Tests for Resource."""

import pytest

from repro.sim import Environment, Interrupt, Resource


def test_resource_limits_concurrency():
    env = Environment()
    res = Resource(env, capacity=2)
    finish_times = []

    def worker(_n):
        yield res.acquire()
        try:
            yield env.timeout(1.0)
        finally:
            res.release()
        finish_times.append(env.now)

    for n in range(4):
        env.process(worker(n))
    env.run()
    # 4 unit-time jobs on 2 slots: two waves.
    assert finish_times == [1.0, 1.0, 2.0, 2.0]


def test_resource_fifo_grant_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(tag):
        yield res.acquire()
        order.append(tag)
        yield env.timeout(1.0)
        res.release()

    for tag in "abcd":
        env.process(worker(tag))
    env.run()
    assert order == list("abcd")


def test_resource_release_without_acquire_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=3, name="slots")
    env.run(until=res.acquire())
    assert res._in_use == 1
    res.release()
    assert res._in_use == 0


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def _queue_of_three(env, res, order):
    """Three unit-time holders of ``res``; ``b`` queues behind ``a``."""
    def worker(tag):
        try:
            yield res.acquire()
        except Interrupt:
            order.append(f"{tag} interrupted")
            return
        order.append(tag)
        yield env.timeout(1.0)
        res.release()

    return {tag: env.process(worker(tag), name=tag) for tag in "abc"}


def test_an_interrupted_waiter_passes_its_turn_on():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []
    workers = _queue_of_three(env, res, order)
    env.run(until=0.5)
    workers["b"].interrupt("cancel")
    env.run()
    assert order == ["a", "b interrupted", "c"]
    assert env.now == 2.0
    assert res._in_use == 0


def test_a_slot_released_to_a_waiter_with_an_interrupt_on_the_way_passes_on():
    # the interrupt is raised in the same instant as, and before, the
    # release that would hand ``b`` the slot: ``b`` never resumes holding
    # it, so it must go to ``c``
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def killer():
        yield env.timeout(1.0)
        workers["b"].interrupt("cancel")

    env.process(killer())
    workers = _queue_of_three(env, res, order)
    env.run()
    assert order == ["a", "b interrupted", "c"]
    assert env.now == 2.0
    assert res._in_use == 0


def test_a_slot_taken_by_a_process_with_an_interrupt_on_the_way_passes_on():
    # ``a`` takes the free slot in the instant it is interrupted, before
    # the interrupt lands: it never resumes holding the slot, so ``b``
    # gets it
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def killer():
        yield env.timeout(1.0)
        first.interrupt("cancel")

    def worker(tag, start):
        yield env.timeout(start)
        try:
            yield res.acquire()
        except Interrupt:
            order.append(f"{tag} interrupted")
            return
        order.append(tag)
        res.release()

    env.process(killer())
    first = env.process(worker("a", 1.0))
    env.process(worker("b", 2.0))
    env.run()
    assert order == ["a interrupted", "b"]
    assert res._in_use == 0
