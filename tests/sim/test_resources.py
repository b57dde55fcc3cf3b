"""Tests for Resource."""

import pytest

from repro.sim import Environment, Resource


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
    assert res.in_use == 1
    res.release()
    assert res.in_use == 0


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)

