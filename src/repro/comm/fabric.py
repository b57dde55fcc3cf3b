"""Point-to-point message fabric between ranked endpoints.

A :class:`CommFabric` binds a set of integer *ranks* to cluster nodes and
moves tagged messages between them through the simulated network using one
:class:`~repro.comm.transport.TransportSpec`. It provides the MPI-flavoured
primitives every collective in this package is built from:

* ``isend(src, dst, payload, tag)`` — returns the delivery's event,
* ``send(...)`` — generator; ``isend``, waited for,
* ``recv(rank, tag)`` — generator; completes with the payload.

Messages carry *real* Python payloads (NumPy-backed segments), so every
collective's result is checkable against a sequential reference. Message
cost is driven by :func:`~repro.serde.sim_sizeof` of the payload, which
respects the ``__sim_size__`` protocol used by scaled payloads.

Matching is by ``(dst, tag)`` with FIFO order per tag — exactly enough for
the deterministic collectives here (each (sender, tag) pair is unique in
every algorithm, so no reordering ambiguity exists). A message is one
rendezvous: whichever side comes first leaves an entry under its key — the
message, or the bare event its receiver waits on — and the other side
consumes and deletes it, so a fabric holds state only for messages and
receivers that have not met yet. A message that finds its receiver waiting
resumes it in place, inside the delivery; a receiver interrupted or closed
mid-wait takes its entry with it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Dict, Generator, Hashable, List, Optional, Tuple

from ..cluster.network import Network
from ..cluster.node import Node
from ..obs import EventBus, MessageDelivered, MessageSent, channel_str
from ..serde import sim_sizeof
from ..sim.core import LAZY
from ..sim.events import TRIGGERED, Event
from .transport import TransportSpec

__all__ = ["CommFabric", "RecvTimeout"]


class RecvTimeout(Exception):
    """``recv`` heard nothing within its timeout (peer dead or message lost)."""

    def __init__(self, rank: int, tag: Any, timeout: float):
        super().__init__(
            f"recv on rank {rank} tag {tag!r} timed out after {timeout:g}s")
        self.rank = rank
        self.tag = tag
        self.timeout = timeout


#: memoized tag -> (channel, hop); tags repeat across iterations, and the
#: string building would otherwise run once per traced message
_TAG_CACHE: Dict[Hashable, Tuple[str, Optional[int]]] = {}


def _tag_channel_hop(tag: Hashable) -> Tuple[str, Optional[int]]:
    """Split a message tag into a channel name and an optional hop index.

    Every collective here tags messages ``(channel, iteration)``; other
    users pass flat tags, which map to a channel with no hop.
    """
    parsed = _TAG_CACHE.get(tag)
    if parsed is None:
        if (isinstance(tag, tuple) and len(tag) == 2
                and isinstance(tag[1], int)):
            parsed = channel_str(tag[0]), tag[1]
        else:
            parsed = channel_str(tag), None
        if len(_TAG_CACHE) < 65536:
            _TAG_CACHE[tag] = parsed
    return parsed


class CommFabric:
    """Tagged point-to-point messaging between ranked endpoints.

    ``bus`` (optional) receives a :class:`MessageSent` per ``send`` and a
    :class:`MessageDelivered` per ``recv`` — including the mailbox dwell
    time between arrival and consumption. Tracing never alters message
    timing: mailbox entries always carry the same metadata tuple whether
    or not a bus is attached.

    ``faults`` (optional) is a link-fault policy — an object exposing
    ``message_fault(src, dst, channel, hop, nbytes)`` returning ``None``
    (deliver normally), ``("drop", 0.0)`` (the bytes cross the wire but
    the message never reaches the mailbox) or ``("delay", extra)``
    (delivery is postponed ``extra`` seconds). With ``faults=None`` no
    policy call happens at all, so an unarmed fabric is bit-identical to
    one that predates fault injection.
    """

    def __init__(self, network: Network, transport: TransportSpec,
                 bus: Optional[EventBus] = None, faults: Any = None):
        self.network = network
        self.transport = transport
        self.bus = bus
        self.faults = faults
        self.env = network.env
        self._nodes: Dict[int, Node] = {}
        #: (dst, tag) -> messages that arrived before their recv, oldest
        #: first; a key is present only while it has unconsumed messages
        self._arrived: Dict[Tuple[int, Hashable], List[tuple]] = {}
        #: (dst, tag) -> events of the receivers blocked on it, oldest first;
        #: never present together with the same key in ``_arrived``
        self._waiting: Dict[Tuple[int, Hashable], List[Event]] = {}
        #: recv deadlines, soonest first: (when, arm order, waiter, key,
        #: timeout). Entries whose waiter was served stay until they surface
        self._deadlines: List[tuple] = []
        self._deadline_seq = 0
        #: the one armed watchdog timer (None while no deadline is live) and
        #: the instant it fires at
        self._watchdog: Optional[Event] = None
        self._watchdog_at = 0.0
        #: messages delivered, for instrumentation
        self.delivered = 0
        #: messages dropped by the fault policy, for instrumentation
        self.dropped = 0
        #: causal parent stamped on traced messages (the owning collective's
        #: span); set by whoever drives the fabric, -1 when uncaused
        self.parent_span = -1

    # ---------------------------------------------------------------- set-up
    def register(self, rank: int, node: Node) -> None:
        """Bind ``rank`` to ``node``; ranks must be registered before use."""
        if rank in self._nodes:
            raise ValueError(f"rank {rank} is already registered")
        self._nodes[rank] = node

    def node_of(self, rank: int) -> Node:
        try:
            return self._nodes[rank]
        except KeyError:
            raise KeyError(f"rank {rank} is not registered") from None

    # ------------------------------------------------------------- rendezvous
    def _put(self, key: Tuple[int, Hashable], message: tuple) -> None:
        """``message`` has reached ``key``: wake its oldest blocked receiver,
        or leave it for the next ``recv``."""
        self.delivered += 1
        waiting = self._waiting.get(key)
        if waiting is None:
            self._arrived.setdefault(key, []).append(message)
        else:
            waiter = waiting.pop(0)
            if not waiting:
                del self._waiting[key]
            waiter.fire(message)  # in place: no hand-off through the queue

    def _withdraw(self, key: Tuple[int, Hashable], waiter: Event) -> None:
        """``waiter`` stops listening on ``key`` (timed out, or its process
        was interrupted or closed mid-wait)."""
        waiting = self._waiting[key]
        waiting.remove(waiter)
        if not waiting:
            del self._waiting[key]

    def _watch(self, key: Tuple[int, Hashable], waiter: Event,
               timeout: float) -> None:
        """Fail ``waiter`` with :class:`RecvTimeout` unless a message reaches
        it by ``now + timeout``.

        All deadlines of a fabric share one kernel timer, armed for the
        soonest. A served waiter's entry costs a heap pop when it surfaces,
        never a kernel event, so a healthy collective pays for its armor
        once per ``timeout`` of virtual time instead of once per recv.
        """
        if timeout < 0:
            raise ValueError(f"negative recv timeout: {timeout}")
        when = self.env.now + timeout
        self._deadline_seq += 1
        heappush(self._deadlines,
                 (when, self._deadline_seq, waiter, key, timeout))
        if self._watchdog is None or when < self._watchdog_at:
            self._arm_watchdog(when)

    def _arm_watchdog(self, when: float) -> None:
        # LAZY: the timer runs after every delivery of its instant, so a
        # message that lands exactly on a deadline is still received. At
        # the absolute instant: ``now + (when - now)`` may differ from
        # ``when`` in the last bit, and a deadline one ulp early or late
        # would order differently against a delivery of that instant.
        timer = Event(self.env, name="recv-watchdog")
        timer._state = TRIGGERED
        timer.callbacks.append(self._on_watchdog)
        self._watchdog = timer
        self._watchdog_at = when
        self.env.schedule_at(timer, when, priority=LAZY)

    def _on_watchdog(self, timer: Event) -> None:
        if timer is not self._watchdog:
            return  # superseded by a timer armed for a sooner deadline
        self._watchdog = None
        now = self.env.now
        deadlines = self._deadlines
        while deadlines:
            when, _seq, waiter, key, timeout = deadlines[0]
            if waiter in self._waiting.get(key, ()):  # still listening
                if when > now:
                    self._arm_watchdog(when)
                    return
                # Withdraw the receiver (a late message must go to the next
                # recv, not vanish into a process that stopped listening)
                # and fail it through the queue, in deadline order.
                self._withdraw(key, waiter)
                waiter.fail(RecvTimeout(*key, timeout))
            heappop(deadlines)

    # ------------------------------------------------------------- primitives
    def send(self, src: int, dst: int, payload: Any, tag: Hashable = 0,
             nbytes: Any = None) -> Generator:
        """Generator: :meth:`isend`, waited for (completes on delivery)."""
        yield self.isend(src, dst, payload, tag, nbytes)

    def isend(self, src: int, dst: int, payload: Any, tag: Hashable = 0,
              nbytes: Any = None) -> Event:
        """Non-blocking send: returns an event firing on delivery.

        ``nbytes`` overrides the payload's estimated size. A tuple of sizes
        makes it one message over that many **lanes**, the PDR's sockets
        per hop: one overhead and latency, one fault verdict, one traced
        message of the summed bytes, one stream's GC drag. On the wire it
        ends with its widest lane and loads its links with the bytes it
        carries: streams of the widest lane's bytes, as many as lanes when
        they are equal, else the sum over the widest (lanes that finish
        early leave their share to the rest).

        A message with no GC drag and no fault verdict costs the kernel no
        event of its own: the flow network waits out overhead + latency
        (``delay``) and fires the returned event in place as the flow's
        completion — the mailbox put is its first callback, and a receiver
        already blocked on the message resumes inside it, so the message
        has landed and been consumed by the time anything waiting on the
        send runs (its value is then the flow's id; nothing reads it).
        Drag, drop and delay each add their stage behind a flow event of
        their own.
        """
        env = self.env
        network = self.network
        transport = self.transport
        src_node = self.node_of(src)
        dst_node = self.node_of(dst)
        size = sim_sizeof(payload) if nbytes is None else nbytes
        if size.__class__ is tuple:
            lanes, widest, narrowest = len(size), max(size), min(size)
            size = sum(size)
            streams = lanes if narrowest == widest else size / widest
        else:
            lanes = streams = 1
            size = widest = narrowest = float(size)
        if narrowest < 0:
            raise ValueError(f"negative message size: {narrowest}")
        sent_at = env.now
        verdict = None
        if self.faults is not None:
            channel, hop = _tag_channel_hop(tag)
            verdict = self.faults.message_fault(src, dst, channel, hop, size)
        span = -1
        bus = self.bus
        if bus is not None and bus.active:
            channel, hop = _tag_channel_hop(tag)
            span = bus.tracer.new_span()
            bus.emit(MessageSent.fast(
                time=sent_at, transport=transport.name, src=src,
                dst=dst, channel=channel, hop=hop, nbytes=size, lanes=lanes,
                span_id=span, parent_span_id=self.parent_span))
        done = Event(env, name="isend")
        key = (dst, tag)
        drag = network.gc_drag(widest) if transport.gc_prone else 0.0

        def _land(_event: Any) -> None:
            self._put(key, (payload, src, size, lanes, sent_at, env.now,
                            span))

        if verdict is None and drag <= 0:
            # The flow's completion is the delivery.
            done.callbacks.append(_land)
            wire = done
        else:
            wire = Event(env, name="flow")
            drop = verdict is not None and verdict[0] == "drop"
            #: what stands between the last byte and the mailbox, in order
            pauses = [pause for pause in (
                drag, 0.0 if verdict is None or drop else verdict[1])
                if pause > 0]

            def _stage(_event: Any) -> None:
                if pauses:
                    env.timeout(pauses.pop(0)).add_callback(_stage)
                    return
                if drop:
                    self.dropped += 1
                else:
                    _land(_event)
                done.succeed(None)

            wire.callbacks.append(_stage)

        network.start_flow(src_node, dst_node, widest,
                           transport.stream_bandwidth,
                           transport.loopback_stream_bandwidth,
                           transport.overhead, event=wire, streams=streams)
        return done

    def recv(self, rank: int, tag: Hashable = 0,
             timeout: Optional[float] = None) -> Generator:
        """Generator: receive the next message for ``(rank, tag)``.

        With ``timeout`` set, raises :class:`RecvTimeout` when no message
        has arrived by the instant ``now + timeout`` — the failure-detection
        primitive recovery is built on. The deadline is that exact float,
        a message landing in the deadline's own instant is still received,
        and deadlines expiring together fail in the order they were set.
        ``timeout=None`` (the default) waits forever.
        """
        key = (rank, tag)
        arrived = self._arrived.get(key)
        if arrived is None:
            waiter = Event(self.env, name="recv")
            if timeout is not None:
                self._watch(key, waiter, timeout)
            self._waiting.setdefault(key, []).append(waiter)
            try:
                message = yield waiter
            finally:
                if not waiter.triggered:  # interrupted or closed mid-wait
                    self._withdraw(key, waiter)
        else:
            message = arrived.pop(0)
            if not arrived:
                del self._arrived[key]
        bus = self.bus
        if bus is not None and bus.active:
            _payload, src, size, lanes, sent_at, arrived_at, span = message
            channel, hop = _tag_channel_hop(tag)
            now = self.env.now
            # Same span as the matching MessageSent: the send/deliver pair
            # IS one message span, which is the happens-before edge.
            bus.emit(MessageDelivered.fast(
                time=now, transport=self.transport.name, src=src,
                dst=rank, channel=channel, hop=hop, nbytes=size,
                lanes=lanes, queue_wait=now - arrived_at,
                flight_time=arrived_at - sent_at,
                span_id=span, parent_span_id=self.parent_span))
        return message[0]

    # ------------------------------------------------------------ conveniences
    def ping_pong(self, a: int, b: int, nbytes: float = 1.0,
                  rounds: int = 1) -> Generator:
        """Generator: ``rounds`` ping-pong exchanges; returns elapsed time.

        This is the latency micro-benchmark of Figure 12: one-way latency is
        the returned elapsed time divided by ``2 * rounds``.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        env = self.env
        began = env.now

        def _responder():
            for i in range(rounds):
                msg = yield from self.recv(b, tag=("ping", i))
                yield from self.send(b, a, msg, tag=("pong", i))

        responder = env.process(_responder(), name="pingpong-responder")
        for i in range(rounds):
            yield from self.send(a, b, b"x", tag=("ping", i), nbytes=nbytes)
            yield from self.recv(a, tag=("pong", i))
        yield responder
        return env.now - began
