"""Tests for the point-to-point micro-benchmark helpers (Figures 12/13)."""

import pytest

from repro.cluster import MB, Cluster, ClusterConfig
from repro.comm import (
    bm_transport,
    measure_latency,
    measure_throughput,
    mpi_transport,
    sc_transport,
)
from repro.sim import Environment


def fresh_cluster(num_nodes=2):
    env = Environment()
    return Cluster(env, ClusterConfig.bic(num_nodes=num_nodes))


def test_throughput_single_sc_channel_hits_stream_cap():
    cluster = fresh_cluster()
    cfg = cluster.config
    bw = measure_throughput(cluster, sc_transport(cfg), nbytes=8 * MB,
                            parallelism=1)
    assert bw == pytest.approx(cfg.tcp_stream_bandwidth, rel=0.02)


def test_throughput_grows_with_parallelism_then_saturates():
    cfg = ClusterConfig.bic()
    bws = {}
    for p in (1, 2, 4):
        bws[p] = measure_throughput(fresh_cluster(), sc_transport(cfg),
                                    nbytes=8 * MB, parallelism=p)
    assert bws[2] == pytest.approx(2 * bws[1], rel=0.05)
    # 4 channels exceed the NIC: capped near line rate, not 4x.
    assert bws[4] < 4 * bws[1]
    assert bws[4] == pytest.approx(cfg.nic_bandwidth, rel=0.05)


def test_sc_4_channels_reach_97_percent_of_mpi():
    """The paper's Figure 13 headline: SC reaches 97.1% of line rate."""
    cfg = ClusterConfig.bic()
    mpi = measure_throughput(fresh_cluster(), mpi_transport(cfg),
                             nbytes=256 * MB, parallelism=1)
    sc4 = measure_throughput(fresh_cluster(), sc_transport(cfg),
                             nbytes=256 * MB, parallelism=4)
    assert 0.90 < sc4 / mpi <= 1.0


def test_gc_drag_dents_large_message_bandwidth():
    """Figure 13: SC bandwidth 'gets worse when the message size is large'."""
    cfg = ClusterConfig.bic()
    mid = measure_throughput(fresh_cluster(), sc_transport(cfg),
                             nbytes=32 * MB, parallelism=4)
    big = measure_throughput(fresh_cluster(), sc_transport(cfg),
                             nbytes=256 * MB, parallelism=4)
    assert big < mid


# Figures 12 and 13 to the last bit, as they were when ``send`` was a kernel
# process of its own (it is ``isend``, waited for) and a Figure 13 round was
# P channel processes (it is one message over P lanes).
@pytest.mark.parametrize("transport,nbytes,rounds,latency", [
    (bm_transport, 1.0, 10, 0.0038610231974833724),   # Figure 12
    (sc_transport, 1.0, 10, 7.272319748337202e-05),
    (mpi_transport, 1.0, 10, 1.5907240468730894e-05),
    (sc_transport, 65536.0, 1, 0.00015718136819375527),
    (sc_transport, 3e8, 7, 0.4038426099811347),       # GC drag
    (bm_transport, 3e8, 1, 0.4076309099811347),
    (mpi_transport, 3e8, 7, 0.12069038568634939)])
def test_ping_pong_latency_is_pinned(transport, nbytes, rounds, latency):
    cluster = fresh_cluster()
    assert measure_latency(cluster, transport(cluster.config), nbytes=nbytes,
                           rounds=rounds) == latency


@pytest.mark.parametrize("nbytes,transport,parallelism,throughput", [
    (1024, mpi_transport, 1, 61230086.94192876),
    (1024, sc_transport, 4, 13927462.102481844),
    (65536, sc_transport, 2, 417003215.87645537),
    (1 * MB, sc_transport, 1, 377810398.10146856),
    (1 * MB, sc_transport, 4, 1144389122.2448196),
    (32 * MB, sc_transport, 2, 774643918.3275566),
    (64 * MB, sc_transport, 4, 1241341888.482959),
    (256 * MB, sc_transport, 4, 1208505448.7579405),
    (256 * MB, mpi_transport, 1, 1242921935.916278)])
def test_figure_13_points_are_pinned(nbytes, transport, parallelism,
                                     throughput):
    cluster = fresh_cluster()
    assert measure_throughput(cluster, transport(cluster.config), nbytes,
                              parallelism=parallelism) == throughput


def test_mpi_latency_beats_sc():
    cfg = ClusterConfig.bic()
    mpi = measure_latency(fresh_cluster(), mpi_transport(cfg))
    sc = measure_latency(fresh_cluster(), sc_transport(cfg))
    assert mpi < sc


def test_throughput_validation():
    cluster = fresh_cluster()
    cfg = cluster.config
    with pytest.raises(ValueError):
        measure_throughput(cluster, sc_transport(cfg), nbytes=0)
    with pytest.raises(ValueError):
        measure_throughput(cluster, sc_transport(cfg), nbytes=1,
                           parallelism=0)


def test_single_node_cluster_rejected_for_p2p():
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=1))
    with pytest.raises(ValueError):
        measure_latency(cluster, sc_transport(cluster.config))
