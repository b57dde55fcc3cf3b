"""Tests for executor internals, broadcast, costing, and the context API."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.rdd import Costed, SparkerContext, cost_of
from repro.rdd.task_context import TaskContext


# ----------------------------------------------------------------- executor
def test_task_slots_limit_concurrency(sc):
    """More tasks than cluster cores: stages take multiple waves."""
    cfg = ClusterConfig.laptop(num_nodes=1)  # 4 cores
    sc1 = SparkerContext(cfg)
    one_wave = SparkerContext(cfg)

    heavy = Costed(lambda x: x, 1.0)  # 1 virtual second per element
    sc1.parallelize(range(4), 4).map(heavy).count()
    t_four = sc1.now
    one_wave.parallelize(range(8), 8).map(heavy).count()
    t_eight = one_wave.now
    # 8 unit tasks on 4 cores take ~2x the time of 4 tasks.
    assert t_eight > 1.7 * t_four


def test_an_interrupted_driver_wait_holds_nothing(sc):
    """A process interrupted while queued for the driver thread gives its
    place back: the next ``driver_work`` runs when the holder is done."""
    env = sc.env
    env.process(sc.driver_work(1.0))
    waiter = env.process(sc.driver_work(1.0))
    env.run(until=0.5)
    waiter.interrupt("cancelled")
    after = env.process(sc.driver_work(1.0))
    env.run(until=after)
    assert env.now == 2.0
    assert sc.driver_cpu._in_use == 0


def test_tasks_run_counter(sc):
    sc.parallelize(range(8), 8).count()
    assert sum(e.tasks_run for e in sc.executors) == 8


def test_tasks_spread_across_executors(sc):
    sc.parallelize(range(16), 16).count()
    busy = [e for e in sc.executors if e.tasks_run > 0]
    assert len(busy) == len(sc.executors)


# ---------------------------------------------------------------- broadcast
def test_broadcast_value_accessible(sc):
    bc = sc.broadcast({"weights": [1, 2, 3]})
    assert bc.value == {"weights": [1, 2, 3]}
    assert bc.sim_bytes > 0


def test_broadcast_costs_virtual_time(sc):
    t0 = sc.now
    sc.broadcast(np.zeros(1 << 20))  # 8 MB
    assert sc.now > t0


def test_broadcast_destroy(sc):
    bc = sc.broadcast("payload")
    bc.destroy()
    with pytest.raises(RuntimeError):
        _ = bc.value


def test_broadcast_usable_in_closures(sc):
    bc = sc.broadcast(10)
    result = sc.parallelize(range(5), 2).map(lambda x: x * bc.value) \
        .collect()
    assert result == [0, 10, 20, 30, 40]


def test_broadcast_ids_increment(sc):
    a, b = sc.broadcast(1), sc.broadcast(2)
    assert b.id == a.id + 1


# ------------------------------------------------------------------ costing
def test_costed_callable_and_cost():
    f = Costed(lambda x: x + 1, lambda x: x * 0.5)
    assert f(4) == 5
    assert f.cost(4) == 2.0
    assert cost_of(f, 4) == 2.0
    assert cost_of(lambda x: x, 4) == 0.0  # un-annotated


def test_costed_constant_cost():
    f = Costed(lambda x: x, 0.25)
    assert f.cost("anything") == 0.25


def test_costed_validation():
    with pytest.raises(TypeError):
        Costed("not callable", 1.0)
    with pytest.raises(TypeError):
        Costed(lambda: None, "not a cost")
    f = Costed(lambda x: x, lambda x: -1.0)
    with pytest.raises(ValueError):
        f.cost(1)


def test_costed_map_charges_virtual_time(sc):
    cheap = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    cheap.parallelize(range(8), 4).map(lambda x: x).count()

    costly = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    costly.parallelize(range(8), 4).map(Costed(lambda x: x, 0.5)).count()
    assert costly.now > cheap.now + 0.4


# -------------------------------------------------------------- TaskContext
def test_task_context_charge_accumulates():
    ctx = TaskContext(0, 0, 0, executor=None)
    ctx.charge(1.0)
    ctx.charge(0.5)
    assert ctx.charged == 1.5
    assert ctx.drain_charges() == 1.5
    assert ctx.charged == 0.0


def test_task_context_rejects_negative():
    ctx = TaskContext(0, 0, 0, executor=None)
    with pytest.raises(ValueError):
        ctx.charge(-0.1)


# ------------------------------------------------------------------ context
def test_context_now_monotone(sc):
    times = [sc.now]
    for _ in range(3):
        sc.parallelize(range(10), 2).count()
        times.append(sc.now)
    assert times == sorted(times)
    assert times[-1] > times[0]


def test_driver_work_serializes(sc):
    procs = [sc.env.process(sc.driver_work(1.0)) for _ in range(3)]
    for p in procs:
        sc.env.run(until=p)
    assert sc.now == pytest.approx(3.0)


def test_driver_fetch_pool_is_concurrent(sc):
    threads = sc.config.driver_result_threads
    procs = [sc.env.process(sc.driver_fetch_work(1.0))
             for _ in range(threads)]
    for p in procs:
        sc.env.run(until=p)
    assert sc.now == pytest.approx(1.0)


def test_driver_work_validation(sc):
    proc = sc.env.process(sc.driver_work(-1.0))
    with pytest.raises(ValueError):
        sc.env.run(until=proc)


def test_default_parallelism_is_total_cores(sc):
    assert sc.default_parallelism == sc.cluster.total_cores
    rdd = sc.parallelize(range(1000))
    assert rdd.num_partitions() == sc.default_parallelism
