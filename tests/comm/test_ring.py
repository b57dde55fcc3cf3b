"""Correctness tests for the scalable communicator's ring collectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.comm import ScalableCommunicator
from repro.sim import Environment

from .conftest import concat_op, make_values, reduce_op, split_op


def run_reduce_scatter(num_nodes=2, parallelism=2, topology_aware=True,
                       elems=64, seed=0, slots=None):
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=num_nodes))
    comm = ScalableCommunicator(cluster, parallelism=parallelism,
                                topology_aware=topology_aware, slots=slots)
    values, expected = make_values(comm.size, elems=elems, seed=seed)
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
            assert comm.segment_owner(idx) == rank


def test_segment_owner_bounds():
    _env, comm, _owned, _ = run_reduce_scatter()
    with pytest.raises(IndexError):
        comm.segment_owner(comm.num_segments)


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
    """The paper's Figure 14 effect: hostname sort beats id sort."""
    env_a, _, _, _ = run_reduce_scatter(num_nodes=4, topology_aware=True,
                                        elems=4096)
    env_b, _, _, _ = run_reduce_scatter(num_nodes=4, topology_aware=False,
                                        elems=4096)
    assert env_a.now < env_b.now


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


def test_rank_of_lookup():
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
    comm = ScalableCommunicator(cluster)
    for rank, slot in enumerate(comm.ranked):
        assert comm.rank_of(slot.executor_id) == rank
    with pytest.raises(KeyError):
        comm.rank_of(10_000)


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
    hops = n * parallelism * (n - 1)
    events = count_reduce_scatter(n, parallelism, recv_timeout=None)
    assert events <= 1.5 * hops + 7 * n * parallelism, (events, hops)
    # Armor costs nothing per healthy hop: every deadline of the run sits
    # behind the one watchdog timer armed by the first recv.
    armored = count_reduce_scatter(n, parallelism, recv_timeout=5.0)
    assert armored <= events + 1
