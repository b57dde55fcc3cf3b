"""Tests for ring allgather and fabric edge behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MB, Cluster, ClusterConfig
from repro.comm import (
    CommFabric,
    ScalableCommunicator,
    ring_allgather_rank,
    sc_transport,
)
from repro.obs import EventBus, RecordingListener
from repro.serde import SizedPayload
from repro.sim import Environment


def make_ring(n_ranks, num_nodes=2):
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=num_nodes))
    fabric = CommFabric(cluster.network, sc_transport(cluster.config))
    for rank, slot in enumerate(cluster.executors[:n_ranks]):
        fabric.register(rank, slot.node)
    return env, fabric


def run_allgather(n_ranks, seed=0):
    env, fabric = make_ring(n_ranks)
    rng = np.random.default_rng(seed)
    owned = {r: rng.integers(0, 100, 8).astype(float)
             for r in range(n_ranks)}

    def rank_proc(rank):
        have = yield from ring_allgather_rank(
            fabric, rank, n_ranks, rank, (owned[rank],))  # one lane
        return rank, {idx: lane for idx, (lane,) in have.items()}

    procs = [env.process(rank_proc(r)) for r in range(n_ranks)]
    results = {}
    for proc in procs:
        rank, have = env.run(until=proc)
        results[rank] = have
    return owned, results


@pytest.mark.parametrize("n_ranks", [1, 2, 3, 5, 8])
def test_allgather_every_rank_gets_every_segment(n_ranks):
    owned, results = run_allgather(n_ranks)
    for rank in range(n_ranks):
        assert set(results[rank]) == set(range(n_ranks))
        for idx, value in results[rank].items():
            np.testing.assert_array_equal(value, owned[idx])


def test_allgather_single_rank_trivial():
    owned, results = run_allgather(1)
    assert list(results[0]) == [0]


@settings(max_examples=10, deadline=None)
@given(n_ranks=st.integers(1, 10), seed=st.integers(0, 50))
def test_allgather_property(n_ranks, seed):
    owned, results = run_allgather(n_ranks, seed)
    for rank in range(n_ranks):
        reassembled = np.concatenate(
            [results[rank][i] for i in sorted(results[rank])])
        expected = np.concatenate([owned[i] for i in range(n_ranks)])
        np.testing.assert_array_equal(reassembled, expected)


def test_allgather_hop_records_the_bytes_the_wire_carried():
    """What travels is each lane's ``(index, segment)`` pair: the hop's
    record and the message it describes must quote one size (laptop(2), P=2,
    1 MB: the record used to say 131072 B a lane where the wire carried
    131114 B), and sizing it for the record must not move the clock."""
    def allreduce(bus):
        env = Environment()
        comm = ScalableCommunicator(Cluster(env, ClusterConfig.laptop(2)),
                                    parallelism=2, bus=bus)
        rng = np.random.default_rng(3)
        values = [SizedPayload(rng.random(64), sim_bytes=1 * MB)
                  for _ in range(comm.size)]
        env.run(until=env.process(comm.allreduce(
            values, lambda u, i, k: u.split(i, k), lambda a, b: a.merge(b),
            SizedPayload.concat)))
        return env.now

    bus, rec = EventBus(), RecordingListener()
    bus.subscribe(rec)
    # the clock of the commit before the fix: the wire already carried it
    assert allreduce(bus) == allreduce(None) == 0.008005895574951172
    sent = {(e.channel, e.hop, e.src): e.nbytes
            for e in rec.of_kind("message_sent")}
    hops = [e for e in rec.of_kind("ring_hop") if e.channel.startswith("ag")]
    assert len(hops) == 4 * 3  # N ranks x N-1 hops, P lanes each
    assert {hop.lanes for hop in hops} == {2}
    for hop in hops:
        assert hop.send_bytes == sent[hop.channel, hop.hop, hop.rank]
        upstream = (hop.rank - 1) % 4
        assert hop.recv_bytes == sent[hop.channel, hop.hop, upstream]
    assert {hop.send_bytes for hop in hops} == {2 * 131114.0}


def test_isend_returns_in_flight_event():
    env, fabric = make_ring(2)
    handle = fabric.isend(0, 1, "payload", tag="t")
    assert not handle.processed

    def receiver():
        msg = yield from fabric.recv(1, tag="t")
        return msg

    recv = env.process(receiver())
    assert env.run(until=recv) == "payload"
    assert handle.processed


def test_fifo_per_tag():
    env, fabric = make_ring(2)

    def sender():
        for i in range(5):
            yield from fabric.send(0, 1, i, tag="seq")

    def receiver():
        out = []
        for _ in range(5):
            out.append((yield from fabric.recv(1, tag="seq")))
        return out

    env.process(sender())
    recv = env.process(receiver())
    assert env.run(until=recv) == [0, 1, 2, 3, 4]


def test_explicit_nbytes_overrides_estimate():
    env, fabric = make_ring(2)

    def timed_send(nbytes):
        began = env.now
        yield from fabric.send(0, 1, "tiny", tag=("n", nbytes),
                               nbytes=nbytes)
        return env.now - began

    small = env.run(until=env.process(timed_send(1.0)))
    big = env.run(until=env.process(timed_send(64 * 1024 * 1024)))
    assert big > 10 * small
