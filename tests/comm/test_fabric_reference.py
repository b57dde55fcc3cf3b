"""Differential oracle: the comm fabric against the obvious one.

The production fabric (``repro.comm.fabric``) drives a message through
event callbacks, lets the flow's completion be the delivery, matches
``(dst, tag)`` through two dicts whose entries are deleted on consumption
and keeps every recv deadline of a fabric in one heap behind one armed
kernel timer. The reference below does none of that: a kernel process per
send running ``Network.transfer``, a list per ``(dst, tag)`` that is never
cleaned up, and one timer event per timed recv. Schedules are generated —
blocking and non-blocking sends, recvs with and without deadlines, a few
tags so that messages and receivers queue up behind each other, zero-byte
and GC-dragged messages, drops and delays, start instants and timeouts off
a coarse grid so that exact ties are common — and the two must agree on
which recv gets which payload, on every delivery and completion instant
(``==``: the fabric is bit-identical or it is wrong) and on the set of
recvs that time out.
"""

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MB, Cluster, ClusterConfig
from repro.comm import CommFabric, sc_transport
from repro.comm.fabric import RecvTimeout
from repro.sim import Environment
from repro.sim.core import LAZY
from repro.sim.events import TRIGGERED, Event

RANKS = 3  # ranks 0 and 2 share a node (loopback path), rank 1 does not


class ReferenceFabric:
    """List mailboxes, a process per send, a timer per timed recv."""

    def __init__(self, network, transport, nodes):
        self.env, self.network = network.env, network
        self.transport, self.nodes = transport, nodes
        self.boxes, self.waiters = {}, {}

    def send(self, src, dst, payload, tag, nbytes, fault):
        spec = self.transport
        yield from self.network.transfer(
            self.nodes[src], self.nodes[dst], nbytes,
            stream_bandwidth=spec.stream_bandwidth,
            loopback_stream_bandwidth=spec.loopback_stream_bandwidth,
            overhead=spec.overhead, gc_prone=spec.gc_prone)
        if fault is not None:
            kind, extra = fault
            if kind == "drop":
                return
            if extra > 0:
                yield self.env.timeout(extra)
        waiters = self.waiters.setdefault((dst, tag), [])
        if waiters:
            waiters.pop(0).succeed(payload)
        else:
            self.boxes.setdefault((dst, tag), []).append(payload)

    def recv(self, rank, tag, timeout):
        box = self.boxes.setdefault((rank, tag), [])
        if box:
            return box.pop(0)
        waiters = self.waiters.setdefault((rank, tag), [])
        wake = self.env.event()
        waiters.append(wake)
        if timeout is not None:
            def expire(_timer):
                if not wake.triggered:
                    waiters.remove(wake)
                    wake.fail(RecvTimeout(rank, tag, timeout))
            # after every delivery of the deadline's instant
            timer = Event(self.env)
            timer._state = TRIGGERED
            timer.callbacks.append(expire)
            self.env.schedule(timer, delay=timeout, priority=LAZY)
        return (yield wake)


@dataclass(frozen=True)
class Op:
    kind: str                     # "send" | "isend" | "recv"
    start: float
    rank: int                     # sender, or receiver
    tag: Tuple[str, int]
    peer: int = 0                 # destination of a send
    nbytes: float = 0.0
    fault: Optional[Tuple[str, float]] = None
    timeout: Optional[float] = None


class ScriptedFaults:
    """Hands out the ops' verdicts in the order sends start."""

    def __init__(self, ops):
        sends = sorted((op.start, i) for i, op in enumerate(ops)
                       if op.kind != "recv")
        self.verdicts = iter([ops[i].fault for _start, i in sends])

    def message_fault(self, src, dst, channel, hop, nbytes):
        return next(self.verdicts)


def play(ops, reference: bool):
    """Run ``ops``; per op, how and when it ended."""
    env = Environment()
    cluster = Cluster(env, ClusterConfig.laptop(2))
    nodes = [slot.node for slot in cluster.executors[:RANKS]]
    transport = sc_transport(cluster.config)
    if reference:
        fabric: Any = ReferenceFabric(cluster.network, transport, nodes)
    else:
        fabric = CommFabric(cluster.network, transport,
                            faults=ScriptedFaults(ops))
        for rank, node in enumerate(nodes):
            fabric.register(rank, node)
    outcome = {}

    def drive(i, op):
        if op.start > 0:
            yield env.timeout(op.start)
        if op.kind == "recv":
            try:
                if reference:
                    got = yield from fabric.recv(op.rank, op.tag, op.timeout)
                else:
                    got = yield from fabric.recv(op.rank, tag=op.tag,
                                                 timeout=op.timeout)
            except RecvTimeout:
                got = "timeout"
            outcome[i] = (got, env.now)
            return
        if reference:
            yield from fabric.send(op.rank, op.peer, i, op.tag, op.nbytes,
                                   op.fault)
        elif op.kind == "send":
            yield from fabric.send(op.rank, op.peer, i, tag=op.tag,
                                   nbytes=op.nbytes)
        else:
            yield fabric.isend(op.rank, op.peer, i, tag=op.tag,
                               nbytes=op.nbytes)
        outcome[i] = ("sent", env.now)

    for i, op in enumerate(ops):
        env.process(drive(i, op), name=f"op{i}")
    env.run()
    return outcome


def one_flight():
    """overhead + latency of the inter-node path: the arrival delay of a
    zero-byte message, so a recv with this timeout ties with one."""
    cfg = ClusterConfig.laptop(2)
    return sc_transport(cfg).overhead + cfg.inter_node_latency


GRID = [0.0, 0.0, 0.01, 0.02, 0.05]
tags = st.tuples(st.sampled_from(["x", "y"]), st.integers(0, 1))
sends = st.builds(
    Op, kind=st.sampled_from(["send", "isend"]), start=st.sampled_from(GRID),
    rank=st.integers(0, RANKS - 1), tag=tags, peer=st.integers(0, RANKS - 1),
    nbytes=st.sampled_from([0.0, 0.0, 2e3, 1 * MB, 24 * MB]),
    fault=st.sampled_from([None, None, None, ("drop", 0.0), ("delay", 0.0),
                           ("delay", 0.01)]))
recvs = st.builds(
    Op, kind=st.just("recv"), start=st.sampled_from(GRID),
    rank=st.integers(0, RANKS - 1), tag=tags,
    timeout=st.sampled_from([None, 0.0, one_flight(), 0.01, 0.03, 0.2]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(sends, recvs), min_size=1, max_size=24))
def test_fabric_matches_the_reference(ops):
    assert play(ops, reference=False) == play(ops, reference=True)


def test_schedules_reach_every_ending():
    """The generator's ingredients, once each by hand: a plain delivery, a
    message queued before its recv, a timeout, a tie on the deadline, a
    dropped message and a GC-dragged one."""
    ops = [
        Op("isend", 0.0, 0, ("x", 0), peer=2, nbytes=2e3),
        Op("recv", 0.0, 2, ("x", 0)),
        Op("send", 0.0, 1, ("y", 0), peer=0, nbytes=24 * MB),
        Op("recv", 0.05, 0, ("y", 0), timeout=0.2),
        Op("recv", 0.0, 1, ("x", 1), timeout=0.01),
        Op("isend", 0.02, 0, ("y", 1), peer=1),
        Op("recv", 0.02, 1, ("y", 1), timeout=one_flight()),
        Op("isend", 0.0, 2, ("x", 1), peer=0, fault=("drop", 0.0)),
        Op("recv", 0.0, 0, ("x", 1), timeout=0.03),
    ]
    real = play(ops, reference=False)
    assert real == play(ops, reference=True)
    assert [real[i][0] for i in (1, 3, 4, 6, 8)] == [
        0, 2, "timeout", 5, "timeout"]
    assert real[4][1] == 0.01 and real[6][1] == 0.02 + one_flight()
    assert real[3][1] > 0.05  # the 24 MB message was still on the wire
