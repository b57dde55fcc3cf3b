"""Tests for Resource and CapacityPool."""

import pytest

from repro.sim import CapacityPool, Environment, Resource


# ---------------------------------------------------------------- Resource
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


def test_resource_use_helper():
    env = Environment()
    res = Resource(env, capacity=1)

    def worker():
        yield from res.use(2.0)
        return env.now

    p1 = env.process(worker())
    p2 = env.process(worker())
    env.run()
    assert p1.value == 2.0
    assert p2.value == 4.0


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
    assert res.available == 2
    res.release()
    assert res.in_use == 0


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


# ------------------------------------------------------------ CapacityPool
def test_pool_shares_up_to_capacity():
    env = Environment()
    pool = CapacityPool(env, capacity=10.0)
    done = []

    def flow(rate, duration, tag):
        yield from pool.transfer(rate, duration)
        done.append((env.now, tag))

    # Two flows of 5 tokens fit concurrently; a third queues.
    env.process(flow(5.0, 1.0, "a"))
    env.process(flow(5.0, 1.0, "b"))
    env.process(flow(5.0, 1.0, "c"))
    env.run()
    assert done == [(1.0, "a"), (1.0, "b"), (2.0, "c")]


def test_pool_clamps_oversized_request():
    env = Environment()
    pool = CapacityPool(env, capacity=4.0)

    def flow():
        granted = yield pool.acquire(100.0)
        assert granted == 4.0
        pool.release(granted)
        return granted

    proc = env.process(flow())
    assert env.run(until=proc) == 4.0
    assert pool.level == 4.0


def test_pool_fifo_no_starvation():
    env = Environment()
    pool = CapacityPool(env, capacity=10.0)
    order = []

    def hog():
        granted = yield pool.acquire(10.0)
        yield env.timeout(1.0)
        pool.release(granted)
        order.append("hog")

    def big_then_small():
        # Big request queues first; the small one must NOT jump the queue.
        def big():
            granted = yield pool.acquire(8.0)
            order.append("big")
            pool.release(granted)

        def small():
            granted = yield pool.acquire(1.0)
            order.append("small")
            pool.release(granted)

        env.process(big())
        yield env.timeout(0.0)
        env.process(small())

    env.process(hog())
    env.process(big_then_small())
    env.run()
    assert order == ["hog", "big", "small"]


def test_pool_over_release_detected():
    env = Environment()
    pool = CapacityPool(env, capacity=2.0)
    with pytest.raises(RuntimeError):
        pool.release(1.0)


def test_pool_validation():
    env = Environment()
    with pytest.raises(ValueError):
        CapacityPool(env, capacity=0.0)
    pool = CapacityPool(env, capacity=1.0)
    with pytest.raises(ValueError):
        pool.acquire(-1.0)


def test_pool_float_rounding_tolerated():
    env = Environment()
    pool = CapacityPool(env, capacity=1.0)

    def flow():
        for _ in range(100):
            granted = yield pool.acquire(0.1)
            pool.release(granted)
        granted = yield pool.acquire(1.0)  # must still fit after churn
        pool.release(granted)
        return True

    proc = env.process(flow())
    assert env.run(until=proc) is True
