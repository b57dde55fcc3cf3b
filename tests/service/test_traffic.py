"""Traffic-generator tests: determinism, replay identity, quota bounces."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core.spec import AggregationSpec
from repro.service import (
    PoolConfig,
    SparkerSession,
    TenantProfile,
    arrival_schedule,
    run_open_loop,
    traffic,
)


CFG = ClusterConfig.laptop(num_nodes=2)

TENANTS = (
    TenantProfile("alice", pool="gold", workloads=("LR-A",),
                  mean_interarrival=20.0, jobs=2, iterations=1,
                  partitions=4),
    TenantProfile("bob", pool="bronze", workloads=("SVM-A",),
                  specs=(AggregationSpec(parallelism=2),),
                  aggregation="split", mean_interarrival=15.0, jobs=2,
                  iterations=1, partitions=4),
)


def test_schedule_is_deterministic_and_sorted():
    first = arrival_schedule(TENANTS, seed=7)
    second = arrival_schedule(TENANTS, seed=7)
    assert first == second
    assert len(first) == sum(t.jobs for t in TENANTS)
    assert [a.time for a in first] == sorted(a.time for a in first)
    # a different seed moves the arrival times
    assert arrival_schedule(TENANTS, seed=8) != first


def test_burst_submits_back_to_back():
    burster = TenantProfile("sweep", jobs=6, burst=3,
                            mean_interarrival=50.0)
    schedule = arrival_schedule((burster,), seed=1)
    assert len(schedule) == 6
    times = [a.time for a in schedule]
    # 6 jobs in 2 bursts: exactly 2 distinct arrival instants
    assert len(set(times)) == 2


def test_signature_ignores_arrival_time():
    a, b = arrival_schedule(
        (TenantProfile("t", workloads=("LR-A",), jobs=2, iterations=1),),
        seed=3)
    assert a.time != b.time
    assert a.signature == b.signature


def test_open_loop_matches_isolated_runs():
    with SparkerSession(CFG) as session:
        result = run_open_loop(session, TENANTS, seed=11)
    assert not result.rejections
    assert result.by_status() == {"succeeded": 4}
    assert result.makespan > 0
    assert len(result.latencies) == 4
    assert result.percentile(0.5) <= result.percentile(0.99)
    # every concurrent job's weights byte-identical to a fresh isolated
    # run of the same signature
    isolated = {}
    for arrival, handle in result.submissions:
        sig = arrival.signature
        if sig not in isolated:
            isolated[sig] = SparkerSession(CFG).run(
                arrival.workload, spec=arrival.spec,
                aggregation=arrival.aggregation,
                iterations=arrival.iterations,
                partitions=arrival.partitions).final_weights
        assert np.array_equal(handle.result().final_weights,
                              isolated[sig]), sig


def test_open_loop_replay_is_deterministic():
    with SparkerSession(CFG) as session:
        first = run_open_loop(session, TENANTS, seed=11)
    with SparkerSession(CFG) as session:
        second = run_open_loop(session, TENANTS, seed=11)
    assert first.makespan == second.makespan
    assert first.latencies == second.latencies


STORM = TenantProfile("storm", pool="tiny", workloads=("LR-A",), jobs=4,
                      burst=4, iterations=1, partitions=4)


# seed 11: the last arrival is the last job to finish; the storm at seed 5:
# two arrivals bounce and a queued job finishes after the last arrival
@pytest.mark.parametrize("tenants, seed", [(TENANTS, 11),
                                           (TENANTS + (STORM,), 5)])
def test_open_loop_stops_when_the_full_walk_would(monkeypatch, tenants,
                                                  seed):
    """The pump's predicate is a cursor over the submissions. After every
    kernel step its value is the full walk's — every arrival submitted,
    every job that got a handle done — so the pump stops on the same
    event."""
    arrivals = len(arrival_schedule(tenants, seed=seed))
    handles = []
    submit = traffic.submit_arrival

    def recorded_submit(session, arrival):
        handles.append(submit(session, arrival))
        return handles[-1]

    monkeypatch.setattr(traffic, "submit_arrival", recorded_submit)
    agreed = []
    pools = {"tiny": PoolConfig(max_running=1, max_queued=1)}
    with SparkerSession(CFG, pools=pools) as session:
        cooperator = session.server.cooperator
        pump = cooperator.pump

        def checked_pump(until_done):
            def both():
                cursor = until_done()
                agreed.append(cursor == (
                    len(handles) == arrivals
                    and all(h.done() for h in handles if h is not None)))
                return cursor
            pump(both)

        cooperator.pump = checked_pump
        result = run_open_loop(session, tenants, seed=seed)
        del cooperator.pump
    assert len(result.rejections) == (2 if STORM in tenants else 0)
    assert len(agreed) > arrivals and all(agreed)


def test_quota_bounces_are_recorded_not_raised():
    burster = (TenantProfile("storm", pool="tiny", workloads=("LR-A",),
                             jobs=4, burst=4, iterations=1, partitions=4),)
    pools = {"tiny": PoolConfig(max_running=1, max_queued=1)}
    with SparkerSession(CFG, pools=pools) as session:
        result = run_open_loop(session, burster, seed=5)
    # 4 back-to-back arrivals against running=1/queued=1: two bounce
    assert len(result.rejections) == 2
    assert result.by_status() == {"succeeded": 2}
    assert all(a.pool == "tiny" for a in result.rejections)
