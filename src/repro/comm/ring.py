"""Ring-based collectives and the PDR scalable communicator.

This module implements §4.1–4.2 of the paper:

* :func:`ring_reduce_scatter_rank` — the per-rank process of the classic
  bandwidth-optimal ring reduce-scatter (Patarasuk & Yuan; paper Figure 11):
  ``N - 1`` iterations, each sending the *current value* of one segment to
  the next neighbour while merging the segment received from the previous
  neighbour.
* :class:`ScalableCommunicator` — executors arranged in a *parallel
  directed ring* (PDR, Figure 10): executors ranked 0..N-1 (sorted by
  hostname when topology-aware), with ``parallelism`` channels per hop.
  Channel ``p`` reduce-scatters global segments ``[p*N, (p+1)*N - 1]``, so
  the aggregator is split into ``N * P`` segments total, exactly as §4.2
  describes.

Parallelism is a property of the connection: a rank runs one ring, a hop
ships local segment ``j``'s :data:`Lanes` as one message over ``P`` streams
and merges them on ``P`` cores. Equal lanes make exactly the instants of
``P`` independent channels; unequal ones end a hop with the widest.

All payload arithmetic is real (the reduce op runs on actual arrays); the
merge CPU cost is charged at the platform's ``merge_bandwidth``.
"""

from __future__ import annotations

import math
from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Sequence, Tuple)

from ..cluster.placement import Cluster, ExecutorSlot
from ..obs import (
    EventBus,
    MessageDelivered,
    MessageSent,
    RingHop,
    SegmentRepresentation,
    channel_str,
)
from ..rdd.executor import ExecutorLost
from ..serde import (
    SerdeModel,
    density_of,
    representation_of,
    sim_dense_sizeof,
    sim_sizeof,
)
from ..sim import Environment, Process
from .fabric import CommFabric, RecvTimeout
from .transport import TransportSpec, sc_transport

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "ring_reduce_scatter_rank",
    "ring_allgather_rank",
    "pipelined_ring_reduce_scatter_rank",
    "chunk_columns_for",
    "ChunkLedger",
    "ScalableCommunicator",
]

ReduceOp = Callable[[Any, Any], Any]
#: local segment ``j`` on every parallel channel: global segments ``p*N + j``
Lanes = Tuple[Any, ...]
SplitOp = Callable[[Any, int, int], Any]
ConcatOp = Callable[[Sequence[Any]], Any]
#: a streamed collective's input: per rank, the event that says its
#: aggregator is final and the call that fetches it
Stream = Sequence[Tuple[Any, Callable[[], Any]]]

#: chunk ceiling (simulated bytes) for ``pipelined_ring`` segment streaming
DEFAULT_CHUNK_BYTES: float = 4.0 * 1024 * 1024


def recv_or_lost(fabric: CommFabric, rank: int, tag: Any,
                 timeout: Optional[float],
                 silence: Callable[[], str]) -> Generator:
    """Generator: every hop's ``fabric.recv``. Silence past ``timeout``
    is a lost peer: it surfaces as :class:`~repro.rdd.executor.ExecutorLost`
    saying ``silence()`` (worded by the hop, only when the deadline fires)
    and the caller rebuilds over the survivors. ``None`` waits forever and
    costs no simulation event."""
    try:
        return (yield from fabric.recv(rank, tag=tag, timeout=timeout))
    except RecvTimeout as exc:
        raise ExecutorLost(silence()) from exc


def record_hop(bus: EventBus, *, time: float, rank: int, executor_id: int,
               channel: str, hop: int, began: float, send_bytes: float,
               recv_bytes: float, merge_time: float, parent_span_id: int,
               lanes: int, send_repr: str = "dense", recv_repr: str = "dense",
               send_dense_bytes: float = 0.0) -> int:
    """Emit one hop's :class:`RingHop` (ring, allgather, halving round,
    leader walk) under a fresh span, and return the span. Its byte counts
    are the sizes the wire was charged, summed over the ``lanes``."""
    span = bus.tracer.new_span()
    bus.emit(RingHop.fast(
        time=time, rank=rank, executor_id=executor_id, channel=channel,
        hop=hop, send_bytes=send_bytes, recv_bytes=recv_bytes, began=began,
        merge_time=merge_time, send_repr=send_repr, recv_repr=recv_repr,
        send_dense_bytes=send_dense_bytes, lanes=lanes, span_id=span,
        parent_span_id=parent_span_id))
    return span


def _hop_repr(reprs: Iterable[str]) -> str:
    """What a hop's record says of lanes in these representations."""
    reprs = set(reprs)
    return reprs.pop() if len(reprs) == 1 else "mixed"


def ring_reduce_scatter_rank(
    fabric: CommFabric,
    rank: int,
    size: int,
    segments: Dict[int, Lanes],
    reduce_op: ReduceOp,
    merge_bandwidth: float,
    channel: Any = 0,
    bus: Optional[EventBus] = None,
    executor_id: int = -1,
    recv_timeout: Optional[float] = None,
    parent_span: int = -1,
) -> Generator:
    """Per-rank ring reduce-scatter over ``size`` ranks.

    ``segments`` maps local segment index ``0..size-1`` to this rank's
    contribution, its :data:`Lanes` (a plain ring: a tuple of one), and is
    only read. Returns ``(owned_index, reduced_lanes)``, ``owned_index ==
    (rank + 1) % size``: the last hop's merge. Each hop's merge is what
    the next hop sends, so a rank holds one merged segment at a time.

    At iteration ``k`` rank ``r`` sends its current value of segment
    ``(r - k) mod N`` to rank ``(r + 1) mod N`` and merges the incoming
    segment ``(r - k - 1) mod N`` from rank ``(r - 1) mod N``; after
    ``N - 1`` iterations each segment has traversed the whole ring. A hop
    is one message over the lanes and ``reduce_op`` lane by lane, side by
    side: the merge costs what the widest merged lane costs.

    With ``bus`` attached, each iteration emits one :class:`RingHop`
    spanning send-off to send-drained, and every lane whose merge changes
    representation (the adaptive sparse -> dense switch) one
    :class:`SegmentRepresentation`. ``recv_timeout`` bounds each hop's
    wait for the upstream neighbour (:func:`recv_or_lost`).
    """
    env = fabric.env
    n = size
    if n == 1:
        return 0, segments[0]
    nxt = (rank + 1) % n
    prev = (rank - 1) % n
    channel_key = channel_str(channel)
    # Hop k merges into the very segment hop k+1 sends, so each segment is
    # sized (and its representation read) once: when it is made.
    outgoing = segments[rank]
    send_sizes = tuple(map(sim_sizeof, outgoing))
    send_reprs = None
    for k in range(n - 1):
        recv_idx = (rank - k - 1) % n
        tag = (channel, k)
        tracing = bus is not None and bus.active
        began = env.now
        local = segments[recv_idx]
        if tracing:
            send_dense = sum(map(sim_dense_sizeof, outgoing))
            if send_reprs is None:
                send_reprs = tuple(map(representation_of, outgoing))
            local_reprs = tuple(map(representation_of, local))
        in_flight = fabric.isend(rank, nxt, outgoing, tag=tag,
                                 nbytes=send_sizes)
        incoming = yield from recv_or_lost(
            fabric, rank, tag, recv_timeout,
            lambda: f"ring rank {rank} heard nothing from rank {prev} on "
                    f"channel {channel_key} hop {k} for {recv_timeout:g}s")
        recv_bytes = sum(map(sim_sizeof, incoming)) if tracing else 0.0
        merged = tuple(map(reduce_op, local, incoming))
        merged_sizes = tuple(map(sim_sizeof, merged))
        merge_cost = max(merged_sizes) / merge_bandwidth
        if merge_cost > 0:
            yield env.timeout(merge_cost)
        # The lanes are single connections: do not start iteration k+1's
        # send until iteration k's has fully left.
        if not in_flight.processed:
            yield in_flight
        merged_reprs = None
        if tracing and bus.active:
            merged_reprs = tuple(map(representation_of, merged))
            hop_span = record_hop(
                bus, time=env.now, rank=rank, executor_id=executor_id,
                channel=channel_key, hop=k, began=began, lanes=len(merged),
                send_bytes=sum(send_sizes), recv_bytes=recv_bytes,
                merge_time=merge_cost, parent_span_id=parent_span,
                send_repr=_hop_repr(send_reprs),
                recv_repr=_hop_repr(map(representation_of, incoming)),
                send_dense_bytes=send_dense)
            for lane, value in enumerate(merged):
                if merged_reprs[lane] != local_reprs[lane]:
                    bus.emit(SegmentRepresentation.fast(
                        time=env.now, site="ring", executor_id=executor_id,
                        rank=rank, channel=channel_key, hop=k, lane=lane,
                        from_repr=local_reprs[lane],
                        to_repr=merged_reprs[lane],
                        nnz=int(getattr(value, "nnz", 0)),
                        length=len(value) if hasattr(value, "__len__") else 0,
                        density=density_of(value),
                        wire_bytes=merged_sizes[lane],
                        dense_bytes=sim_dense_sizeof(value),
                        span_id=bus.tracer.new_span(),
                        parent_span_id=hop_span))
        outgoing, send_sizes, send_reprs = merged, merged_sizes, merged_reprs
    # the last hop merged segment (rank - (n - 1)) mod n, the owned one
    return (rank + 1) % n, outgoing


def ring_allgather_rank(
    fabric: CommFabric,
    rank: int,
    size: int,
    owned_index: int,
    owned_lanes: Lanes,
    channel: Any = "ag",
    bus: Optional[EventBus] = None,
    executor_id: int = -1,
    recv_timeout: Optional[float] = None,
    parent_span: int = -1,
) -> Generator:
    """Per-rank ring allgather: circulate owned segments to every rank.

    Returns a dict mapping segment index -> lanes with all ``size``
    segments. Combined with :func:`ring_reduce_scatter_rank` this yields
    the bandwidth-optimal ring allreduce.
    """
    env = fabric.env
    n = size
    if n == 1:
        return {owned_index: owned_lanes}
    nxt = (rank + 1) % n
    have: Dict[int, Lanes] = {owned_index: owned_lanes}
    channel_key = channel_str(channel)

    def sized(message: Tuple[int, Lanes]) -> Tuple[float, ...]:
        return tuple([sim_sizeof((message[0], lane)) for lane in message[1]])

    # What travels is each lane's (index, segment) pair, forwarded as
    # received: sized once, for the wire and for the hop's record.
    message = (owned_index, owned_lanes)
    sizes = sized(message)
    for k in range(n - 1):
        tag = (channel, k)
        tracing = bus is not None and bus.active
        began = env.now
        in_flight = fabric.isend(rank, nxt, message, tag=tag, nbytes=sizes)
        message = yield from recv_or_lost(
            fabric, rank, tag, recv_timeout,
            lambda: f"allgather rank {rank} heard nothing from rank "
                    f"{(rank - 1) % n} on hop {k} for {recv_timeout:g}s")
        have[message[0]] = message[1]
        sent, sizes = sizes, sized(message)
        if not in_flight.processed:
            yield in_flight
        if tracing and bus.active:
            record_hop(bus, time=env.now, rank=rank,
                       executor_id=executor_id, channel=channel_key, hop=k,
                       began=began, lanes=len(sizes), send_bytes=sum(sent),
                       recv_bytes=sum(sizes), merge_time=0.0,
                       parent_span_id=parent_span)
    return have


def chunk_columns_for(segment: Any, chunk_bytes: Optional[float]) -> int:
    """Chunk-column count for ring segments shaped like ``segment``.

    ``ceil(dense_bytes / chunk_bytes)``, clamped to the segment's element
    count so no column is empty. Values without the chunk protocol
    (``chunk_split`` / ``chunk_concat``) degrade to 1 — a single column
    *is* the classic ring, so the pipelined algorithm stays universal.
    Every rank must compute the same count, which holds whenever ranks
    hold equally-shaped aggregators (the split-aggregation contract).
    """
    if not chunk_bytes or chunk_bytes <= 0:
        return 1
    if not hasattr(segment, "chunk_split"):
        return 1
    columns = int(math.ceil(sim_dense_sizeof(segment) / chunk_bytes))
    try:
        length = len(segment)
    except TypeError:
        length = 1
    return max(1, min(columns, length))


class ChunkLedger:
    """Per-chunk delivery fence for fault-tolerant pipelined rings.

    Each chunk column runs as an independent sub-ring; a rank that
    finishes its column records ``(owned_index, lanes)`` here
    *inside the column process*, so completions survive an abort that
    tears the parent rank process down mid-join. A column is
    **acknowledged** once every rank of the bound topology recorded it —
    the ledger is driver-shared state, so all ranks of a rebuilt ring
    make the same skip decision. On a rebuild bound to the same key
    (same ring membership, same lineage epoch), acknowledged columns are
    not replayed: each rank supplies its recorded slice with zero wire
    and merge cost, and only unacknowledged columns re-run. Binding a
    *different* key (an executor died and its partials were recomputed,
    changing holder values, or the surviving topology shrank) discards
    every record — stale slices must never leak across epochs.
    """

    def __init__(self) -> None:
        #: identity of the attempt family the records belong to
        self.key: Any = None
        #: ranks in the bound topology (ack quorum size)
        self.size: int = 0
        self._done: Dict[int, Dict[int, Any]] = {}

    def bind(self, key: Any, size: int) -> None:
        """Adopt ``key``; clears all records if it differs from the bound
        one. Call before every (re)attempt."""
        if key != self.key or size != self.size:
            self.key = key
            self.size = size
            self._done.clear()

    def record(self, column: int, rank: int, owned: int,
               lanes: Lanes) -> None:
        self._done.setdefault(column, {})[rank] = (owned, lanes)

    def acknowledged(self, column: int) -> bool:
        """True when every rank finished this column (safe to skip)."""
        entry = self._done.get(column)
        return entry is not None and len(entry) == self.size > 0

    def recall(self, column: int, rank: int) -> Any:
        """The ``(owned_index, lanes)`` this rank recorded for a column."""
        return self._done[column][rank]

    def acknowledged_columns(self) -> int:
        """How many columns are currently fully acknowledged."""
        return sum(1 for entry in self._done.values()
                   if len(entry) == self.size > 0)


def pipelined_ring_reduce_scatter_rank(
    fabric: CommFabric,
    rank: int,
    size: int,
    segments: Dict[int, Lanes],
    reduce_op: ReduceOp,
    merge_bandwidth: float,
    num_chunks: int,
    channel: Any = 0,
    bus: Optional[EventBus] = None,
    executor_id: int = -1,
    recv_timeout: Optional[float] = None,
    parent_span: int = -1,
    track: Optional[Callable[[Process], Process]] = None,
    ledger: Optional[ChunkLedger] = None,
) -> Generator:
    """Per-rank chunked ring reduce-scatter: ``num_chunks`` concurrent
    sub-rings over elementwise chunk columns of the segments' lanes.

    Column ``c`` runs the *unchanged* :func:`ring_reduce_scatter_rank`
    over ``chunk_split(c, num_chunks)`` of every lane of every segment, on
    its own fabric channel ``(channel, c)``. A chunk is an elementwise
    slice and every column folds in classic ring order, so the
    concatenated result is bit-identical to the classic ring — the columns
    only let one column's merge CPU overlap another's wire time.
    ``segments`` must be private to this call (chunk views alias the
    caller's values but merges never mutate unowned inputs).

    Returns ``(owned_index, lanes)`` like the classic ring. ``track``
    registers the column processes for abort teardown. ``ledger`` is the
    per-chunk delivery fence: finished columns are recorded as they
    complete, and columns the whole bound topology already acknowledged
    are *skipped* — the rank supplies its recorded slice instead.
    """
    env = fabric.env
    if size == 1:
        return 0, segments[0]

    def column(c: int, col_segments: Dict[int, Lanes]) -> Generator:
        result = yield from ring_reduce_scatter_rank(
            fabric, rank, size, col_segments, reduce_op, merge_bandwidth,
            channel=(channel, c), bus=bus, executor_id=executor_id,
            recv_timeout=recv_timeout, parent_span=parent_span)
        if ledger is not None:
            # Record inside the column process: an abort that interrupts
            # the parent's join must not lose a completed column.
            ledger.record(c, rank, *result)
        return result

    if num_chunks <= 1:
        if ledger is not None and ledger.acknowledged(0):
            return ledger.recall(0, rank)
        return (yield from column(0, segments))
    #: column -> (owned index, reduced slice of every lane)
    results: Dict[int, Tuple[int, Lanes]] = {}
    pending: List[Tuple[int, Process]] = []
    for c in range(num_chunks):
        if ledger is not None and ledger.acknowledged(c):
            results[c] = ledger.recall(c, rank)
            continue
        proc = env.process(
            column(c, {j: tuple([lane.chunk_split(c, num_chunks)
                                 for lane in lanes])
                       for j, lanes in segments.items()}),
            name=f"pc:r{rank}ch{channel_str(channel)}k{c}")
        pending.append((c, track(proc) if track is not None else proc))
    for c, proc in pending:
        results[c] = yield proc
    owned = (rank + 1) % size
    if any(col_owned != owned for col_owned, _ in results.values()):
        raise RuntimeError(  # pragma: no cover - structural invariant
            f"a chunk column of rank {rank} owns another segment than {owned}")
    return owned, tuple([parts[0].chunk_concat(parts) for parts in zip(
        *[results[c][1] for c in range(num_chunks)])])


class ScalableCommunicator:
    """The paper's scalable communicator: a parallel directed ring (PDR).

    Parameters
    ----------
    cluster:
        The simulated cluster whose executors form the ring.
    parallelism:
        Lanes per hop: parallel sockets (and merge cores) per executor;
        the paper uses 4 after the Figure 14 sweep.
    topology_aware:
        Rank executors by hostname (True, the paper's default after Figure
        14) or by executor id (registration order).
    transport:
        Messaging stack; defaults to the JeroMQ-grade SC transport.
    slots:
        Restrict the ring to a subset of executors (scalability sweeps).
    bus:
        Optional :class:`~repro.obs.EventBus`; when attached, every fabric
        message and every ring-hop span is traced.
    faults:
        Optional link-fault policy forwarded to the fabric (see
        :class:`CommFabric`).
    recv_timeout:
        Failure-detection deadline applied to every ring hop's recv;
        ``None`` (the default) disables detection and schedules nothing.
    chunk_bytes / ledger:
        ``"pipelined_ring"``'s alone: the size it cuts chunk columns to
        (:func:`chunk_columns_for`), and the :class:`ChunkLedger` of the
        aggregation this attempt belongs to, if it keeps one.
    """

    def __init__(self, cluster: Cluster, parallelism: int = 4,
                 topology_aware: bool = True,
                 transport: Optional[TransportSpec] = None,
                 slots: Optional[Sequence[ExecutorSlot]] = None,
                 bus: Optional[EventBus] = None,
                 faults: Any = None,
                 recv_timeout: Optional[float] = None,
                 chunk_bytes: float = DEFAULT_CHUNK_BYTES,
                 ledger: Optional[ChunkLedger] = None):
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.parallelism = parallelism
        self.topology_aware = topology_aware
        self.transport = transport or sc_transport(cluster.config)
        self.serde = SerdeModel.from_config(cluster.config)
        self.bus = bus
        self.recv_timeout = recv_timeout
        self.chunk_bytes = chunk_bytes
        self.ledger = ledger

        chosen = list(slots) if slots is not None else list(cluster.executors)
        if not chosen:
            raise ValueError("communicator needs at least one executor")
        if topology_aware:
            chosen.sort(key=lambda s: (s.hostname, s.executor_id))
        else:
            chosen.sort(key=lambda s: s.executor_id)
        self.ranked: List[ExecutorSlot] = chosen
        self.size = len(chosen)

        self.fabric = CommFabric(cluster.network, self.transport, bus=bus,
                                 faults=faults)
        for rank, slot in enumerate(self.ranked):
            self.fabric.register(rank, slot.node)
        #: causal span of the collective driving this communicator; stamps
        #: every hop and fabric message (see :meth:`set_span`)
        self.span_id = -1
        #: every process this communicator spawned (for :meth:`abort`)
        self._procs: List[Process] = []

    def set_span(self, span_id: int) -> None:
        """Adopt ``span_id`` as the causal parent of everything this
        communicator does (ring hops, fabric messages, gather shipments)."""
        self.span_id = span_id
        self.fabric.parent_span = span_id

    def _track(self, proc: Process) -> Process:
        self._procs.append(proc)
        return proc

    def abort(self, cause: str = "communicator aborted") -> None:
        """Tear the collective down: interrupt every spawned process.

        Without this, the surviving ranks of a failed collective keep
        exchanging segments forever (or until their recv deadlines fire),
        consuming NIC bandwidth that would perturb the rebuilt ring.
        Idempotent; safe to call when nothing was spawned.
        """
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc.is_alive:
                proc.interrupt(cause)

    # -------------------------------------------------------------- topology
    def rank_of(self, executor_id: int) -> int:
        """Ring rank of the executor with ``executor_id``."""
        for rank, slot in enumerate(self.ranked):
            if slot.executor_id == executor_id:
                return rank
        raise KeyError(f"executor {executor_id} is not in this communicator")

    @property
    def num_segments(self) -> int:
        """Total segments an aggregator is split into (``N * P``)."""
        return self.size * self.parallelism

    def split_lanes(self, value: Any, split_op: SplitOp) -> Dict[int, Lanes]:
        """``value`` as ``{local j: lanes}``, lane ``p`` global ``p*N + j``."""
        n, num = self.size, self.num_segments
        return {j: tuple([split_op(value, p * n + j, num)
                          for p in range(self.parallelism)])
                for j in range(n)}

    def segment_owner(self, global_index: int) -> int:
        """Ring rank that owns ``global_index`` after reduce-scatter."""
        if not 0 <= global_index < self.num_segments:
            raise IndexError(global_index)
        local = global_index % self.size
        # Owner of local index j is rank (j - 1) mod N (rank r owns (r+1)%N).
        return (local - 1) % self.size

    # ------------------------------------------------------------ collectives
    def hop_context(self, rank: int) -> Dict[str, Any]:
        """Keywords every per-rank body of this communicator runs under."""
        return {"bus": self.bus,
                "executor_id": self.ranked[rank].executor_id,
                "recv_timeout": self.recv_timeout,
                "parent_span": self.span_id}

    def reduce_scatter(self, values: Optional[Sequence[Any]],
                       split_op: SplitOp, reduce_op: ReduceOp,
                       algorithm: Optional[str] = None,
                       stream: Optional[Stream] = None) -> Generator:
        """Process body: reduce-scatter ``values`` across the ranks.

        ``values[rank]`` is the aggregator held by ring rank ``rank``;
        ``algorithm`` a key of
        :data:`repro.comm.collectives.COLLECTIVE_ALGORITHMS`,
        ``None`` being ``"ring"``, the paper's PDR. With ``stream``, rank
        ``r`` waits for its event and takes ``fetch()`` instead of
        ``values[r]``: early finishers enter the collective while
        stragglers still compute. Returns ``owned`` — each rank that owns
        anything mapped to ``{global_segment_index: reduced_segment}``.
        """
        from .collectives import COLLECTIVE_ALGORITHMS
        algo = COLLECTIVE_ALGORITHMS.get(algorithm or "ring")
        if algo is None:
            raise KeyError(f"unknown collective {algorithm!r}; one of "
                           f"{', '.join(COLLECTIVE_ALGORITHMS)}")
        algo.validate(self)
        given = len(values if stream is None else stream)
        if given != self.size:
            raise ValueError(
                f"expected {self.size} values (one per rank), got {given}")
        return (yield from algo.reduce_scatter(self, values, split_op,
                                               reduce_op, stream))

    def gather_concat(self, owned: Dict[int, Dict[int, Any]],
                      concat_op: ConcatOp) -> Generator:
        """Process body: gather owned segments to the driver and concat.

        Models the paper's second step ("use action collect provided by
        Spark"): each rank serializes its segments, ships them to the
        driver, the driver deserializes and concatenates in global segment
        order. Returns the concatenated value.
        """
        env = self.env
        driver = self.cluster.driver_node
        network = self.cluster.network
        collected: Dict[int, Any] = {}

        def ship(rank: int, results: Dict[int, Any]):
            slot = self.ranked[rank]
            bus = self.bus
            total = sum(sim_sizeof(v) for v in results.values())
            yield env.timeout(self.serde.ser_time_bytes(total))
            sent_at = env.now
            msg_span = -1
            if bus is not None and bus.active:
                msg_span = bus.tracer.new_span()
                bus.emit(MessageSent.fast(
                    time=sent_at, transport=self.transport.name, src=rank,
                    dst=-1, channel="gather", hop=rank, nbytes=total,
                    span_id=msg_span, parent_span_id=self.span_id))
            yield from network.transfer(slot.node, driver, total)
            arrived_at = env.now
            yield env.timeout(self.serde.deser_time_bytes(total))
            if bus is not None and bus.active:
                bus.emit(MessageDelivered.fast(
                    time=env.now, transport=self.transport.name, src=rank,
                    dst=-1, channel="gather", hop=rank, nbytes=total,
                    queue_wait=env.now - arrived_at,
                    flight_time=arrived_at - sent_at,
                    span_id=msg_span, parent_span_id=self.span_id))
            for idx, value in results.items():
                collected[idx] = value

        shippers = [self._track(env.process(ship(rank, results),
                                            name=f"gather:r{rank}"))
                    for rank, results in sorted(owned.items())]
        for proc in shippers:
            yield proc
        ordered = [collected[idx] for idx in sorted(collected)]
        total_bytes = sum(sim_sizeof(v) for v in ordered)
        # Concatenation is one pass over the result at memory bandwidth.
        yield env.timeout(total_bytes / self.cluster.config.merge_bandwidth)
        return concat_op(ordered)

    def reduce_scatter_gather(self, values: Optional[Sequence[Any]],
                              split_op: SplitOp, reduce_op: ReduceOp,
                              concat_op: ConcatOp,
                              algorithm: Optional[str] = None,
                              stream: Optional[Stream] = None) -> Generator:
        """Process body: full scalable reduction (reduce-scatter + gather).

        ``algorithm`` and ``stream`` are :meth:`reduce_scatter`'s. Every
        algorithm is bit-identical — the gather ships whatever ranks own
        and concatenates in global segment order, so only message schedule
        and virtual time differ.
        """
        owned = yield self._track(self.env.process(
            self.reduce_scatter(values, split_op, reduce_op, algorithm,
                                stream)))
        return (yield self._track(self.env.process(
            self.gather_concat(owned, concat_op))))

    def allreduce(self, values: Sequence[Any], split_op: SplitOp,
                  reduce_op: ReduceOp, concat_op: ConcatOp) -> Generator:
        """Process body: ring allreduce (reduce-scatter + ring allgather).

        An extension beyond the paper's driver-gather: every rank ends with
        the full reduced value. Returns a list indexed by ring rank.
        """
        owned = yield self.env.process(
            self.reduce_scatter(values, split_op, reduce_op))
        env, n, p_total = self.env, self.size, self.parallelism

        def rank_proc(rank: int):
            mine = (rank + 1) % n  # the ring leaves it this one, every lane
            have = yield from ring_allgather_rank(
                self.fabric, rank, n, mine,
                tuple([owned[rank][p * n + mine] for p in range(p_total)]),
                **self.hop_context(rank))
            return concat_op([have[j][p] for p in range(p_total)
                              for j in range(n)])

        procs = [self._track(env.process(rank_proc(r))) for r in range(n)]
        out: List[Any] = []
        for proc in procs:
            out.append((yield proc))
        return out
