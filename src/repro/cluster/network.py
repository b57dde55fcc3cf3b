"""The network fabric: latency + fair-shared-bandwidth transfer processes.

A transfer between two endpoints is a simulated process that

1. pays the transport's per-message software ``overhead`` at the sender,
2. pays the one-way physical ``latency`` of the path,
3. moves its bytes as a :class:`~repro.cluster.flows.FlowNetwork` flow
   crossing the sender's NIC egress link *and* the receiver's NIC ingress
   link (or the node's loopback link when both endpoints share a node),
   rate-capped by the per-stream TCP limit,
4. pays a GC drag term for very large messages (JVM behaviour the paper
   observes in Figure 13).

Because NIC links are max-min fair-shared, hotspots emerge naturally: N
executors fetching results into the driver split the driver's ingress
bandwidth N ways; a ring whose neighbours live on the same node barely
touches the NICs at all (topology awareness, Figure 14); parallel channels
add throughput until the NIC saturates (Figure 13).
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from ..sim import Environment
from ..sim.events import Event, all_of
from .config import ClusterConfig
from .flows import FlowNetwork
from .node import Node

__all__ = ["Network"]


class Network:
    """Moves bytes between :class:`~repro.cluster.node.Node` endpoints."""

    def __init__(self, env: Environment, config: ClusterConfig):
        self.env = env
        self.config = config
        self.flows = FlowNetwork(env)
        #: total bytes moved, for instrumentation
        self.bytes_transferred = 0.0
        #: total messages sent
        self.messages = 0
        #: bytes that crossed a physical link (inter-node only)
        self.inter_node_bytes = 0.0

    # ------------------------------------------------------------------ misc
    def latency(self, src: Node, dst: Node) -> float:
        """One-way physical latency of the ``src`` → ``dst`` path."""
        if src.node_id == dst.node_id:
            return self.config.intra_node_latency
        return self.config.inter_node_latency

    def gc_drag(self, nbytes: float) -> float:
        """JVM garbage-collection penalty for a message of ``nbytes``."""
        excess = nbytes - self.config.gc_threshold
        if excess <= 0:
            return 0.0
        return excess * self.config.gc_per_byte

    # -------------------------------------------------------------- transfer
    def transfer(self, src: Node, dst: Node, nbytes: float, *,
                 stream_bandwidth: Optional[float] = None,
                 loopback_stream_bandwidth: Optional[float] = None,
                 overhead: float = 0.0,
                 gc_prone: bool = True,
                 streams: float = 1,
                 ) -> Generator:
        """Simulated process: move ``nbytes`` from ``src`` to ``dst``.

        ``stream_bandwidth`` caps the transfer's rate (a single TCP stream);
        ``None`` uses the platform's default stream cap. ``overhead`` is the
        transport's per-message software cost, paid up front. ``gc_prone``
        applies the JVM GC drag for large messages; native stacks (MPI)
        pass False. ``streams`` makes it one message of ``nbytes`` on each of
        that many streams: one overhead and latency, one stream's GC drag.

        Yields kernel events; completes when the last byte has arrived.
        """
        yield self.start_flow(src, dst, nbytes, stream_bandwidth,
                              loopback_stream_bandwidth, overhead,
                              streams=streams)
        if gc_prone:
            drag = self.gc_drag(nbytes)
            if drag > 0:
                yield self.env.timeout(drag)

    def start_flow(self, src: Node, dst: Node, nbytes: float,
                   stream_bandwidth: Optional[float],
                   loopback_stream_bandwidth: Optional[float],
                   overhead: float, event: Optional[Event] = None,
                   streams: float = 1) -> Event:
        """Announce one message, ``nbytes`` on each of ``streams`` streams, to
        the flow network: it joins after the software overhead and the path
        latency, which the network waits out itself, and the returned event
        (``event`` if given) fires on the last byte. Counts the message."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        self.messages += 1
        self.bytes_transferred += nbytes * streams
        delay = overhead + self.latency(src, dst)
        if src.node_id == dst.node_id:
            # Same-node transfer through the shared loopback path; JVM
            # messaging stacks additionally cap each channel's rate.
            return self.flows.flow(nbytes, [src.loopback],
                                   loopback_stream_bandwidth, event, delay,
                                   streams)
        self.inter_node_bytes += nbytes * streams
        return self.flows.flow(
            nbytes, [src.nic_out, dst.nic_in],
            stream_bandwidth or self.config.tcp_stream_bandwidth,
            event, delay, streams)

    def transfer_many(self, legs: Sequence, *,
                      stream_bandwidth: Optional[float] = None,
                      loopback_stream_bandwidth: Optional[float] = None,
                      overhead: float = 0.0,
                      gc_prone: bool = True,
                      ) -> Generator:
        """Simulated process: move N concurrent streams with O(1) processes.

        ``legs`` is a sequence of ``(src, dst, nbytes)`` tuples, each priced
        exactly like an independent :meth:`transfer` (per-message overhead,
        path latency, fair-shared flow, GC drag), but the whole batch is one
        kernel process instead of N: every leg is announced to the flow
        network at the batch's start instant with its own start delay, so
        each begins at exactly ``now + (overhead + latency)``, and per-leg
        completion is tracked with plain events and flow callbacks.
        Completes when the last leg's last byte (plus its GC drag) has
        arrived — the same instant the slowest of N independent
        ``transfer`` processes would have finished, since max-min fair
        allocations at an instant are independent of the order in which
        same-instant flows join the network.
        """
        env = self.env
        done: list = []
        for src, dst, nbytes in legs:
            flow = self.start_flow(src, dst, nbytes, stream_bandwidth,
                                   loopback_stream_bandwidth, overhead)
            drag = self.gc_drag(nbytes) if gc_prone else 0.0
            if drag > 0:
                # Chain the GC pause after the flow without a process: when
                # the flow fires, a drag timeout succeeds the leg's marker.
                marker = Event(env)

                def _after(_flow, _drag=drag, _marker=marker):
                    pause = env.timeout(_drag)
                    pause.add_callback(
                        lambda _p, _m=_marker: _m.succeed(None))

                flow.add_callback(_after)
                done.append(marker)
            else:
                done.append(flow)
        if done:
            yield all_of(env, done)

    def broadcast_tree(self, root: Node, targets: Sequence[Node],
                       nbytes: float, *,
                       stream_bandwidth: Optional[float] = None,
                       overhead: float = 0.0, fanout: int = 2,
                       ) -> Generator:
        """Simulated process: binomial-tree broadcast from ``root``.

        Models Spark's torrent-style broadcast well enough for cost purposes:
        the root is not the sole sender, so broadcast cost grows with
        ``log(n)`` rather than ``n``. Completes when every target has a copy.
        """
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        have = [root]
        remaining = [n for n in targets if n.node_id != root.node_id]
        # Deterministic order: nearest (same-host) receivers first.
        remaining.sort(key=lambda n: (n.hostname != root.hostname, n.node_id))
        while remaining:
            wave = []
            senders = list(have)
            for sender in senders:
                for _ in range(fanout):
                    if not remaining:
                        break
                    receiver = remaining.pop(0)
                    wave.append((sender, receiver, nbytes))
                    have.append(receiver)
            # All of a wave's streams start at the same instant: run the
            # whole wave as one batched process instead of one per edge.
            yield from self.transfer_many(wave,
                                          stream_bandwidth=stream_bandwidth,
                                          overhead=overhead)
