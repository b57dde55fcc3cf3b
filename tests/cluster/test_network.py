"""Tests for the network fabric model."""

import dataclasses

import pytest

from repro.cluster import MB, Cluster, ClusterConfig
from repro.sim import Environment


def make_cluster(num_nodes=2, **overrides):
    env = Environment()
    cfg = ClusterConfig.bic(num_nodes=num_nodes)
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return env, Cluster(env, cfg)


def run_transfer(env, cluster, src, dst, nbytes, **kwargs):
    proc = env.process(cluster.network.transfer(src, dst, nbytes, **kwargs))
    env.run(until=proc)
    return env.now


def test_zero_byte_transfer_costs_latency_only():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0], cluster.nodes[1]
    elapsed = run_transfer(env, cluster, a, b, 0)
    assert elapsed == pytest.approx(cluster.config.inter_node_latency)


def test_intra_node_latency_is_lower():
    env, cluster = make_cluster()
    node = cluster.nodes[0]
    net = cluster.network
    assert net.latency(node, node) < net.latency(node, cluster.nodes[1])


def test_transfer_time_matches_stream_bandwidth():
    env, cluster = make_cluster()
    cfg = cluster.config
    a, b = cluster.nodes[0], cluster.nodes[1]
    nbytes = 8 * MB  # below the GC threshold: no drag
    elapsed = run_transfer(env, cluster, a, b, nbytes)
    expected = cfg.inter_node_latency + nbytes / cfg.tcp_stream_bandwidth
    assert elapsed == pytest.approx(expected, rel=1e-9)


def test_parallel_streams_add_throughput_up_to_nic():
    env, cluster = make_cluster()
    cfg = cluster.config
    a, b = cluster.nodes[0], cluster.nodes[1]
    nbytes = 8 * MB

    procs = [env.process(cluster.network.transfer(a, b, nbytes))
             for _ in range(2)]
    for p in procs:
        env.run(until=p)
    two_stream_time = env.now
    # Two streams fit inside the NIC: same elapsed time as one stream.
    assert two_stream_time == pytest.approx(
        cfg.inter_node_latency + nbytes / cfg.tcp_stream_bandwidth, rel=1e-9)


def test_nic_saturation_fair_shares_streams():
    env, cluster = make_cluster()
    cfg = cluster.config
    a, b = cluster.nodes[0], cluster.nodes[1]
    nbytes = 8 * MB
    n_streams = 4  # 4 x stream cap exceeds the NIC

    procs = [env.process(cluster.network.transfer(a, b, nbytes))
             for _ in range(n_streams)]
    for p in procs:
        env.run(until=p)
    # Fair sharing: aggregate rate pinned at the NIC, all finish together.
    expected = cfg.inter_node_latency + n_streams * nbytes / cfg.nic_bandwidth
    assert env.now == pytest.approx(expected, rel=1e-6)


def test_overhead_paid_upfront():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0], cluster.nodes[1]
    base = run_transfer(env, cluster, a, b, 0)

    env2, cluster2 = make_cluster()
    a2, b2 = cluster2.nodes[0], cluster2.nodes[1]
    with_overhead = run_transfer(env2, cluster2, a2, b2, 0, overhead=1e-3)
    assert with_overhead == pytest.approx(base + 1e-3)


def test_gc_drag_above_threshold():
    env, cluster = make_cluster()
    net = cluster.network
    assert net.gc_drag(1 * MB) == 0.0
    assert net.gc_drag(cluster.config.gc_threshold) == 0.0
    assert net.gc_drag(256 * MB) > 0.0


def test_gc_drag_reduces_effective_bandwidth_at_large_sizes():
    env, cluster = make_cluster()
    cfg = cluster.config
    a, b = cluster.nodes[0], cluster.nodes[1]

    def effective_bw(nbytes):
        e, c = make_cluster()
        t = run_transfer(e, c, c.nodes[0], c.nodes[1], nbytes)
        return nbytes / t

    assert effective_bw(256 * MB) < effective_bw(32 * MB)


def test_loopback_faster_than_network_for_engine_transfers():
    # Engine (Netty-grade) transfers are not per-channel capped on
    # loopback: they run at the aggregate loopback rate.
    env, cluster = make_cluster()
    node = cluster.nodes[0]
    intra = run_transfer(env, cluster, node, node, 64 * MB)

    env2, cluster2 = make_cluster()
    inter = run_transfer(env2, cluster2, cluster2.nodes[0],
                         cluster2.nodes[1], 64 * MB)
    assert intra < inter


def test_loopback_stream_cap_applies_when_requested():
    env, cluster = make_cluster()
    cfg = cluster.config
    node = cluster.nodes[0]
    elapsed = run_transfer(
        env, cluster, node, node, 8 * MB,
        loopback_stream_bandwidth=cfg.loopback_stream_bandwidth)
    expected = cfg.intra_node_latency + \
        8 * MB / cfg.loopback_stream_bandwidth
    assert elapsed == pytest.approx(expected, rel=1e-6)


def test_negative_size_rejected():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0], cluster.nodes[1]
    proc = env.process(cluster.network.transfer(a, b, -1))
    with pytest.raises(ValueError):
        env.run(until=proc)


def test_instrumentation_counters():
    env, cluster = make_cluster()
    a, b = cluster.nodes[0], cluster.nodes[1]
    run_transfer(env, cluster, a, b, 1000)
    net = cluster.network
    assert net.messages == 1
    assert net.bytes_transferred == 1000
    assert net.inter_node_bytes == 1000

    proc = env.process(net.transfer(a, a, 500))
    env.run(until=proc)
    assert net.inter_node_bytes == 1000  # intra-node does not count


def test_a_message_over_streams_is_one_message_of_that_many_flows():
    # three streams under the TCP cap fit the NIC: one overhead and
    # latency, each stream at the cap, counted as one message
    env, cluster = make_cluster()
    cfg = cluster.config
    a, b = cluster.nodes[0], cluster.nodes[1]
    assert 3 * cfg.tcp_stream_bandwidth < cfg.nic_bandwidth
    elapsed = run_transfer(env, cluster, a, b, 4 * MB, overhead=1e-4,
                           streams=3)
    assert elapsed == pytest.approx(
        1e-4 + cfg.inter_node_latency + 4 * MB / cfg.tcp_stream_bandwidth,
        rel=1e-12)
    net = cluster.network
    assert net.messages == 1
    assert net.bytes_transferred == net.inter_node_bytes == 12 * MB
    # four saturate it: the NIC's rate over four streams
    env, cluster = make_cluster()
    a, b = cluster.nodes[0], cluster.nodes[1]
    elapsed = run_transfer(env, cluster, a, b, 4 * MB, streams=4)
    assert elapsed == pytest.approx(
        cfg.inter_node_latency + 16 * MB / cfg.nic_bandwidth, rel=1e-12)


def test_gc_drag_is_per_stream():
    env, cluster = make_cluster()
    cfg = cluster.config
    a, b = cluster.nodes[0], cluster.nodes[1]
    net = cluster.network
    assert net.gc_drag(cfg.gc_threshold / 2) == 0.0
    plain = run_transfer(env, cluster, a, b, cfg.gc_threshold / 2,
                         streams=4, gc_prone=False)
    env, cluster = make_cluster()
    a, b = cluster.nodes[0], cluster.nodes[1]
    assert run_transfer(env, cluster, a, b, cfg.gc_threshold / 2,
                        streams=4) == plain  # 2x the threshold in all


def test_broadcast_tree_reaches_all_and_beats_sequential():
    env, cluster = make_cluster(num_nodes=8)
    cfg = cluster.config
    root = cluster.driver_node
    targets = cluster.nodes
    nbytes = 8 * MB

    proc = env.process(cluster.network.broadcast_tree(root, targets, nbytes))
    env.run(until=proc)
    tree_time = env.now

    sequential = len(targets) * nbytes / cfg.tcp_stream_bandwidth
    assert tree_time < sequential


def test_broadcast_tree_fanout_validation():
    env, cluster = make_cluster()
    proc = env.process(cluster.network.broadcast_tree(
        cluster.driver_node, cluster.nodes, 10, fanout=0))
    with pytest.raises(ValueError):
        env.run(until=proc)
