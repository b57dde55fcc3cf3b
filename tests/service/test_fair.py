"""FAIR arbiter tests: weighted shares, accounting, slot invariants."""

import pytest

from repro.cluster import ClusterConfig
from repro.service import JobServer, PoolConfig


def burst_server(pools):
    return JobServer(ClusterConfig.laptop(num_nodes=2), pools=pools)


def spin_job(sc, rounds=20):
    def body():
        rdd = sc.parallelize(range(8192), 4).cache()
        for _ in range(rounds):
            rdd.map(lambda x: x * 2).count()
    return body


def test_weighted_shares_respect_pool_weights():
    pools = {"heavy": PoolConfig(weight=3.0), "light": PoolConfig(weight=1.0)}
    with burst_server(pools) as server:
        for pool in pools:
            for _ in range(4):
                server.submit(spin_job(server.sc, rounds=200), pool=pool)
        env = server.sc.env
        samples = []

        def monitor():
            while True:
                yield env.timeout(1.0)
                samples.append((server.arbiter.snapshot(),
                                server.arbiter.queued()))

        env.process(monitor(), name="monitor", critical=True)
        # Weighted fairness only arbitrates *contention*: once a pool's
        # burst drains, accumulated task_seconds converge on total work
        # done (equal by construction here). Sample while tickets are
        # still queued and both pools have accumulated real runtime.
        server.cooperator.pump(
            lambda: samples and samples[-1][1] > 0 and min(
                samples[-1][0][pool]["task_seconds"] for pool in pools) > 10.0)
        snapshot, queued = samples[-1]
        assert queued > 0
        raw = {pool: snapshot[pool]["task_seconds"] for pool in pools}
        # the weight-3 pool must be getting strictly more slot-seconds...
        assert raw["heavy"] > raw["light"], raw
        # ...and the weighted shares must stay within the 2x FAIR bound
        shares = {pool: raw[pool] / pools[pool].weight for pool in pools}
        ratio = max(shares.values()) / min(shares.values())
        assert ratio <= 2.0, shares
        server.drain()


def test_unknown_pool_autoregisters_at_weight_one():
    with burst_server(None) as server:
        record = server.submit(spin_job(server.sc, rounds=1), pool="surprise")
        server.drain()
        assert record.status == "succeeded"
        assert server.arbiter.pools["surprise"].weight == 1.0


def test_no_ticket_waits_beside_a_free_slot():
    # The arbiter owns all queueing: a ticket that waits while its
    # executor has a free slot is a stranded slot (a cancelled task that
    # kept its grant), and every slot is free again once all jobs end.
    pools = {"a": PoolConfig(weight=2.0), "b": PoolConfig(weight=1.0)}
    with burst_server(pools) as server:
        for pool in pools:
            for _ in range(3):
                server.submit(spin_job(server.sc, rounds=5), pool=pool)
        env = server.sc.env
        slots = server.arbiter.slots.values()
        violations = []

        def check():
            while True:
                yield env.timeout(0.5)
                for executor_slots in slots:
                    if (executor_slots.waiting
                            and executor_slots.held < executor_slots.capacity):
                        violations.append(env.now)

        env.process(check(), name="invariant", critical=True)
        server.drain()
        assert not violations
        assert server.arbiter.queued() == 0
        for executor_slots in slots:
            assert executor_slots.held == 0


def test_snapshot_and_queued_shapes():
    pools = {"x": PoolConfig(weight=2.0)}
    with burst_server(pools) as server:
        server.submit(spin_job(server.sc, rounds=1), pool="x")
        server.drain()
        snapshot = server.arbiter.snapshot()
        assert set(snapshot) >= {"x"}
        assert {"weight", "running", "task_seconds"} <= set(snapshot["x"])
        assert snapshot["x"]["task_seconds"] > 0
        assert server.arbiter.queued() == 0


def test_pool_config_validates_weight():
    with pytest.raises(ValueError):
        PoolConfig(weight=0.0)
    with pytest.raises(ValueError):
        PoolConfig(weight=-1.0)
