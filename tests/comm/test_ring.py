"""Correctness tests for the scalable communicator's ring collectives."""

import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MB, Cluster, ClusterConfig
from repro.comm import ScalableCommunicator
from repro.comm.ring import ring_reduce_scatter_rank
from repro.serde import SizedPayload
from repro.sim import Environment
from repro.sim.calendar import BucketCalendar

from .conftest import concat_op, make_values, reduce_op, split_op


def run_reduce_scatter(num_nodes=2, parallelism=2, topology_aware=True,
                       elems=64, seed=0, slots=None, sim_bytes=None):
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=num_nodes))
    comm = ScalableCommunicator(cluster, parallelism=parallelism,
                                topology_aware=topology_aware, slots=slots)
    values, expected = make_values(comm.size, elems=elems, seed=seed,
                                   sim_bytes=sim_bytes)
    proc = env.process(comm.reduce_scatter(values, split_op, reduce_op))
    owned = env.run(until=proc)
    return env, comm, owned, expected


def reassemble(comm, owned):
    segments = {}
    for results in owned.values():
        segments.update(results)
    assert sorted(segments) == list(range(comm.num_segments))
    return np.concatenate([segments[i].data for i in sorted(segments)])


def test_reduce_scatter_computes_exact_sum():
    _env, comm, owned, expected = run_reduce_scatter()
    np.testing.assert_allclose(reassemble(comm, owned), expected)


def test_each_rank_owns_parallelism_segments():
    _env, comm, owned, _ = run_reduce_scatter(parallelism=3)
    assert set(owned) == set(range(comm.size))
    for results in owned.values():
        assert len(results) == 3


def test_segment_owner_accessor_agrees():
    _env, comm, owned, _ = run_reduce_scatter()
    for rank, results in owned.items():
        for idx in results:
            # rank r owns local index (r + 1) mod N of every lane
            assert (idx % comm.size - 1) % comm.size == rank


def test_single_executor_ring():
    env = Environment()
    cluster = Cluster(env, ClusterConfig.laptop(num_nodes=1))
    comm = ScalableCommunicator(cluster, parallelism=2,
                                slots=cluster.executors[:1])
    values, expected = make_values(1, elems=16)
    proc = env.process(comm.reduce_scatter(values, split_op, reduce_op))
    owned = env.run(until=proc)
    np.testing.assert_allclose(reassemble(comm, owned), expected)


def test_value_count_must_match_ring_size():
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
    comm = ScalableCommunicator(cluster)
    values, _ = make_values(3)
    proc = env.process(comm.reduce_scatter(values, split_op, reduce_op))
    with pytest.raises(ValueError):
        env.run(until=proc)


def test_topology_aware_ranking_groups_hosts():
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=4))
    aware = ScalableCommunicator(cluster, topology_aware=True)
    hosts = [s.hostname for s in aware.ranked]
    blocks = 1 + sum(1 for a, b in zip(hosts, hosts[1:]) if a != b)
    assert blocks == 4

    oblivious = ScalableCommunicator(cluster, topology_aware=False)
    hosts = [s.hostname for s in oblivious.ranked]
    transitions = sum(1 for a, b in zip(hosts, hosts[1:]) if a != b)
    assert transitions == len(hosts) - 1


def test_topology_awareness_is_faster():
    """The paper's Figure 14 effect, where it lives: at P=4 and 32 MB a
    hostname-sorted ring keeps three hops in four on loopback and is twice
    as fast as the id-sorted one, whose every hop crosses a NIC. (At a few
    KB both are latency-bound and a 2% difference flips with one element
    of padding.)"""
    clocks = {aware: run_reduce_scatter(
        num_nodes=4, parallelism=4, topology_aware=aware, elems=96 * 4,
        sim_bytes=8.0 * 2 ** 22)[0].now for aware in (True, False)}
    assert clocks[False] / clocks[True] >= 1.5  # 2.04


# The lane model's invariant (DESIGN.md section 11, *The PDR hop*). A hop is one message
# over P lanes and one merge on P cores; lanes of equal size make the very
# instants P independent channels made. The clocks below are those of the
# commit that still ran P ring processes per rank (BICx4, 24 ranks, a
# 32 MB value whose 96 | 48 segments are all equal), to the last bit.
@pytest.mark.parametrize("topology_aware,parallelism,clock", [
    (True, 2, 0.15701122390420433), (True, 4, 0.07932671195210216),
    (False, 2, 0.16625001737334083), (False, 4, 0.16157061969347547)])
def test_equal_lanes_are_p_independent_channels_to_the_bit(
        topology_aware, parallelism, clock):
    env, comm, owned, expected = run_reduce_scatter(
        num_nodes=4, parallelism=parallelism, topology_aware=topology_aware,
        elems=96 * 4, sim_bytes=8.0 * 96 * 43691)
    assert env.now == clock
    np.testing.assert_array_equal(reassemble(comm, owned), expected)


@pytest.mark.parametrize("parallelism,clock", [
    (2, 0.1570210373720449), (4, 0.07952535788474069)])
def test_unequal_lanes_on_a_hostname_sorted_ring_keep_the_clock(
        parallelism, clock):
    """Lanes half a percent apart (19247 elements over 96 | 48 segments):
    a hop now ends with its widest lane, which on the hostname-sorted ring
    is when its P channels ended it — the same pre-lane commit's clocks.
    (The id-sorted ring, every hop NIC-bound and tie-ordered, reads
    0.16159 s at P=4 where the independent channels made 0.15871 s: they
    drifted out of lock-step, which lanes cannot.)"""
    env, _, _, _ = run_reduce_scatter(
        num_nodes=4, parallelism=parallelism, elems=96 * 200 + 47,
        sim_bytes=8.0 * (96 * 43691 + 47))
    assert env.now == clock


def test_a_hop_ends_with_its_widest_lane():
    """Two ranks on two nodes, one hop, lanes of 1 | 3 | 2 MB: three
    streams under the TCP cap, the NIC unsaturated, so the hop is overhead +
    latency + the widest lane at the stream rate, then the widest merge."""
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
    slots = [next(s for s in cluster.executors if s.node is node)
             for node in cluster.nodes]
    comm = ScalableCommunicator(cluster, parallelism=3, slots=slots)
    sizes = [1 * MB, 3 * MB, 2 * MB]

    def split(value, g, _num):  # global g = lane * 2 + local index
        return SizedPayload(np.full(2, value), sim_bytes=sizes[g // 2])

    owned = env.run(until=env.process(
        comm.reduce_scatter([1.0, 2.0], split, reduce_op)))
    config = cluster.config
    assert 3 * config.tcp_stream_bandwidth < config.nic_bandwidth
    assert env.now == pytest.approx(
        config.sc_overhead + config.inter_node_latency
        + 3 * MB / config.tcp_stream_bandwidth
        + 3 * MB / config.merge_bandwidth, rel=1e-12)
    assert sorted(g for res in owned.values() for g in res) == list(range(6))
    assert all(seg.data.tolist() == [3.0, 3.0]
               for res in owned.values() for seg in res.values())


@pytest.mark.parametrize("lane_mb,clock", [
    (10, 1.1313029781250004), (20, 2.26740649375)])
def test_gc_drag_is_charged_per_stream_not_on_the_sum(lane_mb, clock):
    """BICx2, P=2. Two 10 MB lanes are a 20 MB message, over the 16 MB
    ``gc_threshold``, and pay no drag: no single stream's buffer is over
    it, exactly as when they were two messages. Two 20 MB lanes pay the
    drag of 20 MB, once. Both clocks are the pre-lane commit's."""
    env, _, _, _ = run_reduce_scatter(
        num_nodes=2, parallelism=2, elems=24 * 4,
        sim_bytes=24.0 * lane_mb * MB)
    assert env.now == clock


def test_more_parallelism_is_not_slower_for_large_messages():
    env_1, _, _, _ = run_reduce_scatter(parallelism=1, elems=8192)
    env_4, _, _, _ = run_reduce_scatter(parallelism=4, elems=8192)
    assert env_4.now < env_1.now


def test_gather_concat_returns_full_vector():
    env, comm, owned, expected = run_reduce_scatter()
    proc = env.process(comm.gather_concat(owned, concat_op))
    result = env.run(until=proc)
    np.testing.assert_allclose(result.data, expected)


def test_reduce_scatter_gather_end_to_end():
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
    comm = ScalableCommunicator(cluster, parallelism=2)
    values, expected = make_values(comm.size, elems=100, seed=3)
    proc = env.process(comm.reduce_scatter_gather(
        values, split_op, reduce_op, concat_op))
    result = env.run(until=proc)
    np.testing.assert_allclose(result.data, expected)


def test_allreduce_every_rank_gets_full_sum():
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
    comm = ScalableCommunicator(cluster, parallelism=2)
    values, expected = make_values(comm.size, elems=48, seed=7)
    proc = env.process(comm.allreduce(values, split_op, reduce_op, concat_op))
    results = env.run(until=proc)
    assert len(results) == comm.size
    for value in results:
        np.testing.assert_allclose(value.data, expected)


def test_parallelism_validation():
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
    with pytest.raises(ValueError):
        ScalableCommunicator(cluster, parallelism=0)


@settings(max_examples=15, deadline=None)
@given(
    n_ranks=st.integers(min_value=1, max_value=10),
    parallelism=st.integers(min_value=1, max_value=4),
    elems=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_reduce_scatter_correct_for_any_shape(n_ranks, parallelism, elems,
                                              seed):
    """Property: ring reduce-scatter equals the sequential sum for any
    ring size, channel count and vector length (including elems < N*P)."""
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
    comm = ScalableCommunicator(cluster, parallelism=parallelism,
                                slots=cluster.executors[:n_ranks])
    values, expected = make_values(comm.size, elems=elems, seed=seed)
    proc = env.process(comm.reduce_scatter(values, split_op, reduce_op))
    owned = env.run(until=proc)
    np.testing.assert_allclose(reassemble(comm, owned), expected)


# ------------------------------------------------------------- count guards
def count_reduce_scatter(n, parallelism, recv_timeout):
    """Kernel events a reduce-scatter schedules on ``n`` ranks, one per node
    (every hop crosses a NIC and all ranks move in lock-step, so the flow
    solver's own wake-ups and flushes are shared by a whole ring step)."""
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=n))
    one_per_node = {}
    for slot in cluster.executors:
        one_per_node.setdefault(slot.node.node_id, slot)
    comm = ScalableCommunicator(cluster, parallelism=parallelism,
                                slots=list(one_per_node.values()),
                                recv_timeout=recv_timeout)
    assert comm.size == n
    values, expected = make_values(n, elems=comm.num_segments * 8,
                                   sim_bytes=4e6)
    before = env.events_scheduled
    owned = env.run(until=env.process(
        comm.reduce_scatter(values, split_op, reduce_op)))
    np.testing.assert_array_equal(reassemble(comm, owned), expected)
    return env.events_scheduled - before


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("parallelism", [1, 4])
def test_ring_hop_costs_one_kernel_event(n, parallelism):
    # Work is counted, not timed. A hop's own entry is the merge timeout:
    # the flow network waits out the latency, fires the flow's completion
    # (the delivery and the sender's handle) in place, and the delivery
    # resumes its receiver in place. The rest of the 1.5 is the hop's share
    # of the solver's wake-ups and flushes (a join and a completion instant
    # per ring step, shared by every rank moving in lock-step); what is
    # left over — process boots and joins — is set-up that does not grow
    # with the hop count.
    hops = n * (n - 1)  # whatever the parallelism: a hop is one message
    events = count_reduce_scatter(n, parallelism, recv_timeout=None)
    assert events <= 1.5 * hops + 7 * n, (events, hops)
    # Armor costs nothing per healthy hop: every deadline of the run sits
    # behind the one watchdog timer armed by the first recv.
    armored = count_reduce_scatter(n, parallelism, recv_timeout=5.0)
    assert armored <= events + 1


# --------------------------------------------------------- what a rank keeps
class _Lane:
    """A lane value that can be watched with a weakref."""

    __slots__ = ("data", "__weakref__")

    def __init__(self, data):
        self.data = data

    def __sim_size__(self):
        return 8.0 * self.data.size


def test_a_ring_rank_keeps_only_the_segment_it_sends():
    """Each hop's merge is the next hop's send, so a rank keeps one merged
    lane tuple, not the N - 1 it makes. Sampled at every kernel step, a
    rank's merges alive are the one it keeps and at most the one its
    downstream neighbour has yet to merge; once the ring is done, with the
    caller still holding every rank's ``segments``, only the returned
    tuple is left."""
    n, parallelism = 8, 2
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=n))
    one_per_node = {}
    for slot in cluster.executors:
        one_per_node.setdefault(slot.node.node_id, slot)
    comm = ScalableCommunicator(cluster, parallelism=parallelism,
                                slots=list(one_per_node.values()))
    rng = np.random.default_rng(0)
    made = [[] for _ in range(n)]

    def merging(rank):
        def reduce_lane(a, b):
            out = _Lane(a.data + b.data)
            made[rank].append(weakref.ref(out))
            return out
        return reduce_lane

    def alive(rank):
        return sum(ref() is not None for ref in made[rank]) / parallelism

    most = [0.0] * n
    pop = BucketCalendar.pop

    def sampled(calendar):
        for rank in range(n):
            most[rank] = max(most[rank], alive(rank))
        return pop(calendar)

    segments = [{j: tuple(_Lane(rng.standard_normal(16))
                          for _ in range(parallelism)) for j in range(n)}
                for _ in range(n)]
    with mock.patch.object(BucketCalendar, "pop", sampled):
        procs = [env.process(ring_reduce_scatter_rank(
            comm.fabric, rank, n, segments[rank], merging(rank), 1e9))
            for rank in range(n)]
        env.run()
    results = [proc.value for proc in procs]
    assert all(len(made[rank]) == (n - 1) * parallelism for rank in range(n))
    assert max(most) == 2
    assert [alive(rank) for rank in range(n)] == [1] * n
    for rank, (owned, lanes) in enumerate(results):
        assert owned == (rank + 1) % n
        expected = sum(segments[r][owned][0].data for r in range(n))
        np.testing.assert_allclose(lanes[0].data, expected)
