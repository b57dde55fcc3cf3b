"""Tests for transports and the point-to-point fabric."""

import numpy as np
import pytest

from repro.cluster import MB, US, Cluster, ClusterConfig
from repro.comm import (
    CommFabric,
    ScalableCommunicator,
    TransportSpec,
    bm_transport,
    measure_latency,
    mpi_transport,
    sc_transport,
)
from repro.comm.fabric import RecvTimeout
from repro.obs import EventBus, RecordingListener
from repro.sim import Environment

from .conftest import concat_op, make_values, reduce_op, split_op


def make(num_nodes=2):
    env = Environment()
    return env, Cluster(env, ClusterConfig.bic(num_nodes=num_nodes))


def two_ranks(cluster):
    fabric = CommFabric(cluster.network, sc_transport(cluster.config))
    fabric.register(0, cluster.nodes[0])
    fabric.register(1, cluster.nodes[1])
    return fabric


def test_transport_specs_ordering():
    cfg = ClusterConfig.bic()
    mpi, sc, bm = mpi_transport(cfg), sc_transport(cfg), bm_transport(cfg)
    assert mpi.overhead < sc.overhead < bm.overhead
    # Native MPI saturates the NIC with a single stream; JVM stacks do not.
    assert mpi.stream_bandwidth == cfg.nic_bandwidth
    assert sc.stream_bandwidth is None


def test_transport_validation():
    with pytest.raises(ValueError):
        TransportSpec("x", overhead=-1.0, stream_bandwidth=None)
    with pytest.raises(ValueError):
        TransportSpec("x", overhead=0.0, stream_bandwidth=0.0)


def test_send_recv_delivers_payload():
    env, cluster = make()
    fabric = CommFabric(cluster.network, sc_transport(cluster.config))
    fabric.register(0, cluster.nodes[0])
    fabric.register(1, cluster.nodes[1])

    def sender():
        yield from fabric.send(0, 1, {"hello": 1}, tag="t")

    def receiver():
        msg = yield from fabric.recv(1, tag="t")
        return msg

    env.process(sender())
    proc = env.process(receiver())
    assert env.run(until=proc) == {"hello": 1}
    assert fabric.delivered == 1


def test_tags_isolate_messages():
    env, cluster = make()
    fabric = CommFabric(cluster.network, sc_transport(cluster.config))
    fabric.register(0, cluster.nodes[0])
    fabric.register(1, cluster.nodes[1])

    def sender():
        yield from fabric.send(0, 1, "A", tag="a")
        yield from fabric.send(0, 1, "B", tag="b")

    def receiver():
        # Receive in the opposite tag order.
        b = yield from fabric.recv(1, tag="b")
        a = yield from fabric.recv(1, tag="a")
        return a, b

    env.process(sender())
    proc = env.process(receiver())
    assert env.run(until=proc) == ("A", "B")


def test_duplicate_rank_registration_rejected():
    env, cluster = make()
    fabric = CommFabric(cluster.network, sc_transport(cluster.config))
    fabric.register(0, cluster.nodes[0])
    with pytest.raises(ValueError):
        fabric.register(0, cluster.nodes[1])


def test_unregistered_rank_rejected():
    env, cluster = make()
    fabric = CommFabric(cluster.network, sc_transport(cluster.config))
    with pytest.raises(KeyError):
        fabric.node_of(3)


def test_latency_matches_paper_figure12():
    """One-way latencies land on the paper's measurements (Figure 12)."""
    env, cluster = make()
    mpi = measure_latency(cluster, mpi_transport(cluster.config))
    assert mpi == pytest.approx(15.94 * US, rel=0.02)

    env, cluster = make()
    sc = measure_latency(cluster, sc_transport(cluster.config))
    assert sc == pytest.approx(72.73 * US, rel=0.02)

    env, cluster = make()
    bm = measure_latency(cluster, bm_transport(cluster.config))
    assert bm == pytest.approx(3861.25 * US, rel=0.02)

    # And the paper's headline ratios: SC ~4.6x MPI, BM ~242x MPI.
    assert sc / mpi == pytest.approx(4.56, rel=0.05)
    assert bm / mpi == pytest.approx(242.24, rel=0.05)


def test_ping_pong_round_validation():
    env, cluster = make()
    fabric = CommFabric(cluster.network, sc_transport(cluster.config))
    fabric.register(0, cluster.nodes[0])
    fabric.register(1, cluster.nodes[1])
    proc = env.process(fabric.ping_pong(0, 1, rounds=0))
    with pytest.raises(ValueError):
        env.run(until=proc)


def test_isend_rejects_negative_size_at_the_call_site():
    env, cluster = make()
    fabric = two_ranks(cluster)
    with pytest.raises(ValueError, match="negative message size"):
        fabric.isend(0, 1, "x", nbytes=-1.0)
    with pytest.raises(ValueError, match="negative message size"):
        fabric.isend(0, 1, "x", nbytes=(2e3, -1.0))  # any lane
    # Nothing was started: no message counted, no event left to blow up
    # inside env.run().
    assert cluster.network.messages == 0
    assert env.peek() == float("inf")


@pytest.mark.parametrize("nbytes", [0.0, 2e3, 24 * MB])  # 24 MB: GC drag
def test_message_has_landed_when_the_sender_resumes(nbytes):
    env, cluster = make()
    fabric = two_ranks(cluster)

    def sender():
        yield fabric.isend(0, 1, "x", tag="t", nbytes=nbytes)
        return fabric.delivered

    def receiver():
        return (yield from fabric.recv(1, tag="t"))

    delivered = env.process(sender())
    env.process(receiver())
    assert env.run(until=delivered) == 1


# ------------------------------------------------------------- timed recv
def timed_recv(env, fabric, log, name, start, tag, timeout):
    """Process: at ``start`` recv ``tag`` on rank 1; log how it ended."""
    def body():
        if start > 0:
            yield env.timeout(start)
        try:
            got = yield from fabric.recv(1, tag=tag, timeout=timeout)
        except RecvTimeout as exc:
            assert (exc.rank, exc.tag, exc.timeout) == (1, tag, timeout)
            got = "timeout"
        log.append((name, env.now, got))
    return env.process(body(), name=name)


def test_timed_recv_fires_at_exactly_start_plus_timeout():
    env, cluster = make()
    fabric = two_ranks(cluster)
    log = []
    timed_recv(env, fabric, log, "a", 0.0, "a", 0.2)
    timed_recv(env, fabric, log, "b", 0.1, "b", 0.8)
    env.run()
    # The watchdog is re-armed for b from a's deadline; through a relative
    # delay that would be 0.2 + (0.9 - 0.2) = 0.8999999999999999.
    assert 0.2 + ((0.1 + 0.8) - 0.2) != 0.1 + 0.8
    assert log == [("a", 0.2, "timeout"), ("b", 0.1 + 0.8, "timeout")]


@pytest.mark.parametrize("send_first", [True, False])
def test_message_landing_on_the_deadline_is_received(send_first):
    env, cluster = make()
    fabric = two_ranks(cluster)
    start = 0.3
    flight = (fabric.transport.overhead
              + cluster.network.latency(cluster.nodes[0], cluster.nodes[1]))
    log = []

    def sender():
        yield env.timeout(start)
        fabric.isend(0, 1, "on the dot", tag="t", nbytes=0.0)

    procs = [lambda: env.process(sender()),
             lambda: timed_recv(env, fabric, log, "r", start, "t", flight)]
    for spawn in (procs if send_first else reversed(procs)):
        spawn()
    env.run()
    assert log == [("r", start + flight, "on the dot")]


def test_mixed_timeouts_fire_in_deadline_then_arm_order():
    env, cluster = make()
    fabric = two_ranks(cluster)
    log = []
    # (name, start, timeout): "late" is armed first and expires last;
    # "soon" is armed after it for a sooner instant (the watchdog must be
    # re-armed); "tie1"/"tie2" share an instant and keep their arm order.
    for name, start, timeout in [("late", 0.0, 0.5), ("tie1", 0.0, 0.25),
                                 ("soon", 0.05, 0.05), ("tie2", 0.125, 0.125),
                                 ("never", 0.0, None)]:
        timed_recv(env, fabric, log, name, start, name, timeout)
    env.run()
    assert log == [("soon", 0.05 + 0.05, "timeout"),
                   ("tie1", 0.25, "timeout"), ("tie2", 0.25, "timeout"),
                   ("late", 0.5, "timeout")]


def test_timed_out_recv_leaves_no_waiter_behind():
    env, cluster = make()
    fabric = two_ranks(cluster)
    log = []
    timed_recv(env, fabric, log, "first", 0.0, "t", 0.1)
    env.run(until=0.15)
    assert log == [("first", 0.1, "timeout")]
    assert not fabric._waiting and not fabric._deadlines

    def late_sender():
        yield from fabric.send(0, 1, "late", tag="t")

    env.process(late_sender())
    env.run()
    # Nobody was listening: the message waits for the next recv on the tag
    # instead of vanishing into the receiver that gave up.
    assert fabric.delivered == 1
    timed_recv(env, fabric, log, "second", 0.0, "t", 0.1)
    env.run()
    assert log[1][0] == "second" and log[1][2] == "late"
    assert not fabric._arrived and not fabric._waiting


# ------------------------------------------------------------------- lanes
def deliver(sizes, one_message, bus=None):
    """Rank 0 sends ``sizes`` to rank 1 on another node, as one message over
    that many lanes or as that many messages; the delivery instants."""
    env, cluster = make()
    fabric = two_ranks(cluster)
    fabric.bus = bus
    landed = []
    sends = ([("m", tuple(sizes))] if one_message
             else [(("m", lane), size) for lane, size in enumerate(sizes)])
    for tag, nbytes in sends:
        fabric.isend(0, 1, "payload", tag=tag, nbytes=nbytes).add_callback(
            lambda _e: landed.append(env.now))
    env.run()
    assert fabric.delivered == cluster.network.messages == len(sends)
    return landed, cluster


@pytest.mark.parametrize("sizes", [[1 * MB] * 2, [3 * MB] * 4, [40 * MB] * 3])
def test_equal_lanes_land_when_that_many_messages_would(sizes):
    # under the stream cap, saturating the NIC, and with GC drag: bit for bit
    (one,), _ = deliver(sizes, one_message=True)
    many, _ = deliver(sizes, one_message=False)
    assert many == [one] * len(sizes)


def test_unequal_lanes_land_with_the_widest_and_load_what_they_carry():
    config = ClusterConfig.bic()
    head = config.sc_overhead + config.inter_node_latency
    # three lanes under the cap: the widest at the stream rate
    (at,), cluster = deliver([1 * MB, 3 * MB, 2 * MB], one_message=True)
    assert at == pytest.approx(head + 3 * MB / config.tcp_stream_bandwidth,
                               rel=1e-12)
    assert cluster.network.bytes_transferred == 6 * MB
    # five lanes saturate the NIC: the sum of the bytes at line rate, as
    # five separate messages take (the short one leaves early, the rest
    # speed up), not five times the widest
    sizes = [4 * MB, 4 * MB, 4 * MB, 4 * MB, 2 * MB]
    (at,), _ = deliver(sizes, one_message=True)
    many, _ = deliver(sizes, one_message=False)
    assert at == pytest.approx(max(many), rel=1e-12)
    assert at == pytest.approx(head + 18 * MB / config.nic_bandwidth,
                               rel=1e-12)


def test_a_message_over_lanes_is_recorded_once():
    bus, rec = EventBus(), RecordingListener()
    bus.subscribe(rec)
    env, cluster = make()
    fabric = two_ranks(cluster)
    fabric.bus = bus
    fabric.isend(0, 1, "payload", tag=("ring", 3), nbytes=(2e3, 1e3, 3e3))
    env.run(until=env.process(fabric.recv(1, tag=("ring", 3))))
    (sent,), (got,) = (rec.of_kind("message_sent"),
                       rec.of_kind("message_delivered"))
    assert (sent.lanes, sent.nbytes, sent.channel, sent.hop) == (
        3, 6e3, "ring", 3)
    assert (got.lanes, got.nbytes, got.span_id) == (3, 6e3, sent.span_id)


def test_one_fault_verdict_decides_every_lane():
    class DropFirst:
        asked = []

        def message_fault(self, src, dst, channel, hop, nbytes):
            self.asked.append(nbytes)
            return ("drop", 0.0) if len(self.asked) == 1 else None

    env, cluster = make()
    fabric = two_ranks(cluster)
    fabric.faults = DropFirst()
    for _ in range(2):
        fabric.isend(0, 1, "payload", tag="t", nbytes=(1e3, 2e3))
    env.run()
    assert DropFirst.asked == [3e3, 3e3]
    assert (fabric.dropped, fabric.delivered) == (1, 1)


@pytest.mark.parametrize("recv_timeout", [None, 5.0])
def test_fabric_holds_no_per_message_state_after_a_collective(
        bic2, recv_timeout):
    env, cluster = bic2
    comm = ScalableCommunicator(cluster, parallelism=2,
                                recv_timeout=recv_timeout)
    values, expected = make_values(comm.size, elems=comm.num_segments * 4)
    proc = env.process(comm.reduce_scatter_gather(
        values, split_op, reduce_op, concat_op))
    result = env.run(until=proc)
    assert np.array_equal(result.data, expected)
    fabric = comm.fabric
    # one message a hop, both lanes in it
    assert fabric.delivered == comm.size * (comm.size - 1)
    assert not fabric._arrived and not fabric._waiting
    # Deadlines of served receivers are dropped when they surface, at the
    # latest when the one armed timer fires.
    env.run()
    assert not fabric._deadlines and fabric._watchdog is None


@pytest.mark.parametrize("recv_timeout", [None, 5.0])
def test_abort_mid_hop_withdraws_every_blocked_receiver(bic2, recv_timeout):
    env, cluster = bic2
    comm = ScalableCommunicator(cluster, parallelism=2,
                                recv_timeout=recv_timeout)
    values, _expected = make_values(comm.size, elems=comm.num_segments * 4,
                                    sim_bytes=4e6)
    proc = env.process(comm.reduce_scatter(values, split_op, reduce_op))
    fabric = comm.fabric
    blocked = 0
    while blocked < comm.size:  # the first hop: every rank waits
        env.step()
        blocked = sum(map(len, fabric._waiting.values()))
    assert fabric.delivered == 0
    comm.abort()
    env.run()
    assert not proc.ok
    # The interrupted receivers took their entries with them: the hop's
    # messages, still on the wire at the abort, were kept for the next recv
    # on their tag instead of vanishing into processes that had stopped
    # listening; the dead deadlines went when the watchdog fired.
    assert fabric._waiting == {} and not fabric._deadlines
    assert fabric.delivered == blocked
    assert sum(map(len, fabric._arrived.values())) == blocked


def test_recv_closed_mid_wait_stops_listening():
    env, cluster = make()
    fabric = two_ranks(cluster)
    abandoned = fabric.recv(1, tag="t")
    next(abandoned)
    assert len(fabric._waiting[(1, "t")]) == 1
    abandoned.close()
    assert fabric._waiting == {}
    log = []
    fabric.isend(0, 1, "kept", tag="t", nbytes=2e3)
    env.run()
    timed_recv(env, fabric, log, "next", 0.0, "t", None)
    env.run()
    assert log == [("next", env.now, "kept")]
