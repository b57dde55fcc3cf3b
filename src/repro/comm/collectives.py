"""Pluggable collective algorithms for the split-aggregation reduce step.

The paper hard-codes one reduction topology — the parallel directed ring
reduce-scatter of §4.2 — but its own Figure 14/15 sweeps show the best
collective depends on segment size, executor count and host topology.
This module makes the algorithm an entry of one table,
:data:`COLLECTIVE_ALGORITHMS`, so
:func:`~repro.core.sai.split_aggregate` (via
:class:`~repro.core.spec.AggregationSpec`'s ``collective`` field) can
pick per call:

* ``"ring"`` — the paper's PDR ring
  (:func:`~repro.comm.ring.ring_reduce_scatter_rank` on every rank),
* ``"pipelined_ring"`` — that ring as concurrent chunk columns (one
  column's merge overlaps another's wire time),
* ``"hd"`` — recursive halving(-doubling): ``log2(N)`` exchange rounds
  over power-of-two rank blocks, with a pre-fold round absorbing the
  ranks beyond the largest power of two. Fewer, larger messages — wins
  when per-message overhead dominates (small segments, few ranks).
* ``"hierarchical"`` — a two-level reduce: every member ships its
  split segments to its *host leader* over loopback in parallel (the
  intra-host merge, priced like the IMM merge path at
  ``merge_bandwidth``), then each segment's accumulator walks an
  inter-host ring over one leader per host. Sequential depth drops from
  ``N - 1`` hops to ``H`` inter-host hops — wins with many executors
  per host.

**The bit-identity contract.** The seed ring reduces every global
segment ``g`` (local index ``j = g mod N`` on channel ``p``) as one
left-deep chain in rank order starting at rank ``j``::

    acc = v[j]
    for r in (j+1, j+2, ..., j-1 mod N):
        acc = reduce_op(v[r], acc)      # contribution first, acc second

Float addition is not associative, so *every* algorithm here realizes
exactly this association — hierarchical folds member contributions one
at a time in rank order as the accumulator passes each host, and
halving-doubling defers contributions (shipping ordered
``(origin_rank, value)`` lists, honestly sized on the wire) and folds
only the canonical prefix chain. All three therefore produce
bit-identical final values; they differ only in message schedule, wire
bytes and virtual time.

**One fan-out.** ``ring``, ``pipelined_ring`` and ``hd`` are each a
*per-rank step* — what one rank does with its ``N`` local segments, each
the :data:`~repro.comm.ring.Lanes` of the ``P`` channels — and
:func:`fan_out` is everything around it. ``hierarchical`` has no such step
(its leaders gather their members first) and keeps its own body. All four
move a hop as one message over ``P`` lanes and wait and record through
:func:`~repro.comm.ring.recv_or_lost` / :func:`~repro.comm.ring.record_hop`.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generator, Iterable, List, Optional,
                    Sequence, Tuple)

from ..cluster.placement import host_blocks
from ..obs import ChunkStream, EventBus, channel_str
from ..serde import sim_sizeof
from .fabric import CommFabric
from .ring import (
    Lanes,
    ReduceOp,
    SplitOp,
    Stream,
    chunk_columns_for,
    pipelined_ring_reduce_scatter_rank,
    record_hop,
    recv_or_lost,
    ring_reduce_scatter_rank,
)

__all__ = [
    "CollectiveAlgorithm",
    "RingCollective",
    "PipelinedRingCollective",
    "HalvingDoublingCollective",
    "HierarchicalCollective",
    "COLLECTIVE_ALGORITHMS",
    "fan_out",
    "hd_reduce_scatter_rank",
]


def fan_out(comm: Any, values: Optional[Sequence[Any]], split_op: SplitOp,
            reduce_op: ReduceOp, step: Callable[..., Generator],
            stream: Optional[Stream] = None) -> Generator:
    """Process body: run ``step`` on every rank of ``comm``.

    Rank ``r`` takes ``values[r]`` — or, streamed, waits for its readiness
    event and fetches — and splits it into the ``N * P`` global segments.
    ``step(comm, rank, segments, reduce_op)`` runs inside the rank's one
    tracked process over ``comm.split_lanes`` of it (a dict the step owns)
    and returns the ``{local index: reduced lanes}`` the rank ends up
    with, empty if it was folded away. Returns ``owned``: ``{rank: {global
    index: reduced segment}}`` without the ranks that own nothing.
    """
    env, n, p_total = comm.env, comm.size, comm.parallelism

    def rank_proc(rank: int):
        if stream is None:
            value = values[rank]
        else:
            ready, fetch = stream[rank]
            yield ready
            value = fetch()
        block = yield from step(comm, rank, comm.split_lanes(value, split_op),
                                reduce_op)
        return {p * n + j: lanes[p]
                for p in range(p_total) for j, lanes in block.items()}

    procs = [comm._track(env.process(rank_proc(r), name=f"rs:rank{r}"))
             for r in range(n)]
    owned: Dict[int, Dict[int, Any]] = {}
    for rank, proc in enumerate(procs):
        results = yield proc
        if results:
            owned[rank] = results
    return owned


class CollectiveAlgorithm:
    """One reduce-scatter strategy: its per-rank step
    (:meth:`step`) under :func:`fan_out`, or — when its shape is not one
    body per rank — a ``reduce_scatter`` process body of its own, taking
    what ``fan_out`` takes and returning ``owned``."""

    name: str = "?"

    def validate(self, comm: Any) -> None:
        """Raise ``ValueError`` when ``comm`` cannot run this algorithm."""

    def step(self, comm: Any, rank: int, segments: Dict[int, Lanes],
             reduce_op: ReduceOp) -> Generator:
        """The per-rank step (see :func:`fan_out`)."""
        raise NotImplementedError

    def reduce_scatter(self, comm: Any, values: Optional[Sequence[Any]],
                       split_op: SplitOp, reduce_op: ReduceOp,
                       stream: Optional[Stream] = None) -> Generator:
        return fan_out(comm, values, split_op, reduce_op, self.step, stream)


# --------------------------------------------------------------------- ring
class RingCollective(CollectiveAlgorithm):
    """The seed PDR ring: the classic ring, ``P`` lanes a hop."""

    name = "ring"

    def step(self, comm: Any, rank: int, segments: Dict[int, Lanes],
             reduce_op: ReduceOp) -> Generator:
        owned, lanes = yield from ring_reduce_scatter_rank(
            comm.fabric, rank, comm.size, segments, reduce_op,
            comm.cluster.config.merge_bandwidth, channel="ring",
            **comm.hop_context(rank))
        return {owned: lanes}


# ---------------------------------------------------------- pipelined ring
class PipelinedRingCollective(CollectiveAlgorithm):
    """Chunk-pipelined PDR ring: overlap merge CPU with wire time.

    Each segment's lanes split further into ``C`` elementwise *chunk
    columns*, every column the unchanged classic ring on a fabric channel
    of its own (:func:`~repro.comm.ring.pipelined_ring_reduce_scatter_rank`:
    bit-identical to ``"ring"``, and with one column hop-for-hop the same).
    While column ``c``'s hop is on the wire, column ``c'``'s merge runs on
    the CPU, so per hop the rank pays ``max(wire, merge)`` plus one
    column's pipeline-fill instead of ``wire + merge``.

    ``C`` comes from the communicator's ``chunk_bytes``
    (:func:`~repro.comm.ring.chunk_columns_for`). Each rank leaves one
    :class:`~repro.obs.ChunkStream` once it has joined.
    """

    name = "pipelined_ring"

    def step(self, comm: Any, rank: int, segments: Dict[int, Lanes],
             reduce_op: ReduceOp) -> Generator:
        bus, began = comm.bus, comm.env.now
        tracing = bus is not None and bus.active
        if tracing:  # the rank's contribution, as split
            value_bytes = sum([sim_sizeof(lane) for lanes in segments.values()
                               for lane in lanes])
        # Every rank holds an equally-shaped aggregator, so the probe
        # segment (global index 0, the longest) yields the same column
        # count on all ranks — no agreement round needed.
        chunks = chunk_columns_for(segments[0][0], comm.chunk_bytes)
        owned, lanes = yield from pipelined_ring_reduce_scatter_rank(
            comm.fabric, rank, comm.size, segments, reduce_op,
            comm.cluster.config.merge_bandwidth, chunks, channel="ring",
            track=comm._track, **comm.hop_context(rank))
        if tracing and bus.active:
            bus.emit(ChunkStream.fast(
                time=comm.env.now, rank=rank,
                executor_id=comm.ranked[rank].executor_id, channel="ring",
                num_chunks=chunks, chunk_bytes=float(comm.chunk_bytes),
                value_bytes=value_bytes, began=began, lanes=len(lanes),
                span_id=bus.tracer.new_span(), parent_span_id=comm.span_id))
        return {owned: lanes}


# ------------------------------------------------------- chain-order state
def _accumulate(totals: List[float], row: Iterable[float]) -> None:
    """``totals += row``, lane by lane."""
    for p, x in enumerate(row):
        totals[p] += x


class _ChainState:
    """Deferred reduction state of one segment: fold only in chain order.

    Holds the folded canonical prefix (``acc`` covers origin ranks
    ``start .. start+count-1`` mod ``size``) plus unordered pending
    contributions by origin rank, every value the segment's ``lanes``.
    Because contributions are globally disjoint and folding only ever
    extends the prefix, merging two partial states and folding
    opportunistically reproduces the ring's exact left-deep chain no
    matter how contributions travelled.
    """

    __slots__ = ("start", "size", "lanes", "acc", "count", "pending")

    def __init__(self, start: int, size: int, lanes: int):
        self.start = start
        self.size = size
        self.lanes = lanes
        self.acc: Optional[Lanes] = None
        self.count = 0
        self.pending: Dict[int, Lanes] = {}

    def add(self, origin: int, value: Lanes) -> None:
        self.pending[origin] = value

    def fold(self, reduce_op: ReduceOp) -> List[float]:
        """Fold every prefix-extending contribution; returns merge bytes,
        lane by lane."""
        merged_bytes = [0.0] * self.lanes
        if self.acc is None:
            value = self.pending.pop(self.start, None)
            if value is None:
                return merged_bytes
            self.acc = value
            self.count = 1
        while self.count < self.size and self.pending:
            nxt = (self.start + self.count) % self.size
            value = self.pending.pop(nxt, None)
            if value is None:
                break
            self.acc = tuple(map(reduce_op, value, self.acc))
            _accumulate(merged_bytes, map(sim_sizeof, self.acc))
            self.count += 1
        return merged_bytes

    @property
    def complete(self) -> bool:
        return self.count == self.size

    def wire_size(self) -> List[float]:
        """Bytes this state ships as, lane by lane."""
        total = [0.0] * self.lanes
        if self.acc is not None:
            _accumulate(total, map(sim_sizeof, self.acc))
        for value in self.pending.values():
            _accumulate(total, map(sim_sizeof, value))
        return total

    def export(self) -> Tuple[Any, int, List[Tuple[int, Any]]]:
        return (self.acc, self.count, list(self.pending.items()))

    def absorb(self, exported: Tuple[Any, int, List[Tuple[int, Any]]]) -> None:
        acc, count, items = exported
        if acc is not None:
            if self.acc is not None:  # pragma: no cover - disjointness guard
                raise RuntimeError(
                    f"two folded prefixes for segment {self.start}")
            self.acc = acc
            self.count = count
        self.pending.update(items)


def _owner_block(n: int, n2: int, owner: int) -> Tuple[int, int]:
    """Contiguous local-segment range ``[lo, hi)`` owned by ``owner``."""
    return (owner * n) // n2, ((owner + 1) * n) // n2


# --------------------------------------------------- recursive halving (hd)
def hd_reduce_scatter_rank(
    fabric: CommFabric,
    rank: int,
    size: int,
    segments: Dict[int, Lanes],
    reduce_op: ReduceOp,
    merge_bandwidth: float,
    channel: Any = "hd",
    bus: Optional[EventBus] = None,
    executor_id: int = -1,
    recv_timeout: Optional[float] = None,
    parent_span: int = -1,
) -> Generator:
    """Per-rank recursive-halving reduce-scatter.

    ``segments`` maps local index ``0..size-1`` to this rank's raw lanes.
    Rounds: an optional pre-fold (rank ``r >= 2^m`` ships its whole
    contribution set to rank ``r - 2^m``), then ``m`` pairwise exchanges
    at distances ``2^(m-1) .. 1`` in which each rank sends the chain
    states of the half it gives up and absorbs its kept half. States carry
    deferred ``(origin, value)`` contributions and fold only along the
    canonical prefix chain, so the result is bit-identical to the ring;
    wire sizes price the deferred payloads honestly, a round is one
    message over the lanes, its merge what the busiest lane's folds cost.

    Returns ``{local_index: reduced_lanes}`` for this rank's final
    owner block — empty for the pre-folded extra ranks.
    """
    env = fabric.env
    n = size
    if n == 1:
        return {0: segments[0]}
    m = n.bit_length() - 1
    n2 = 1 << m
    lanes = len(segments[0])
    channel_key = channel_str(channel)

    states: Dict[int, _ChainState] = {}
    for j in range(n):
        state = _ChainState(j, n, lanes)
        state.add(rank, segments[j])
        state.fold(reduce_op)  # seats rank j's own prefix; merges nothing
        states[j] = state

    def _recv(hop: int) -> Generator:
        return recv_or_lost(
            fabric, rank, (channel_key, hop), recv_timeout,
            lambda: f"hd rank {rank} heard nothing on channel {channel_key} "
                    f"round {hop} for {recv_timeout:g}s")

    def _absorb(incoming: List[Tuple[int, Any]]) -> Tuple[float, float]:
        """Take in a partner's states; returns (bytes received, seconds
        of merging the folds they unlocked cost)."""
        merged_bytes = [0.0] * lanes
        recv_bytes, tracing = 0.0, bus is not None and bus.active
        for j, exported in incoming:
            state = states[j]
            state.absorb(exported)
            _accumulate(merged_bytes, state.fold(reduce_op))
            if tracing:  # sized for the record alone
                recv_bytes += sum(state.wire_size())
        return recv_bytes, max(merged_bytes) / merge_bandwidth

    def _emit_hop(hop: int, began: float, send_bytes: float,
                  recv_bytes: float, merge_time: float) -> None:
        if bus is not None and bus.active:
            record_hop(bus, time=env.now, rank=rank,
                       executor_id=executor_id, channel=channel_key, hop=hop,
                       began=began, lanes=lanes, send_bytes=send_bytes,
                       recv_bytes=recv_bytes, merge_time=merge_time,
                       parent_span_id=parent_span)

    def _export(local_indices: range) -> Tuple[list, Tuple[float, ...]]:
        """Hand over the non-empty states of ``local_indices``: the
        payload and its bytes, lane by lane."""
        payload = []
        nbytes = [0.0] * lanes
        for j in local_indices:
            state = states[j]
            if state.acc is None and not state.pending:
                continue
            _accumulate(nbytes, state.wire_size())
            payload.append((j, state.export()))
            states[j] = _ChainState(j, n, lanes)
        return payload, tuple(nbytes)

    # ---- round 0: fold the ranks beyond the largest power of two ----------
    if rank >= n2:
        payload, nbytes = _export(range(n))
        began = env.now
        yield from fabric.send(rank, rank - n2, payload,
                               tag=(channel_key, 0), nbytes=nbytes)
        _emit_hop(0, began, sum(nbytes), 0.0, 0.0)
        return {}
    if rank + n2 < n:
        began = env.now
        recv_bytes, merge_time = _absorb((yield from _recv(0)))
        if merge_time > 0:
            yield env.timeout(merge_time)
        _emit_hop(0, began, 0.0, recv_bytes, merge_time)

    # ---- rounds 1..m: pairwise halving over the power-of-two core ---------
    block_lo, block_hi = 0, n2
    for t in range(1, m + 1):
        half = (block_hi - block_lo) // 2
        mid = block_lo + half
        if rank < mid:
            partner = rank + half
            send_lo, send_hi = mid, block_hi
            block_hi = mid
        else:
            partner = rank - half
            send_lo, send_hi = block_lo, mid
            block_lo = mid
        payload, nbytes = _export(range(_owner_block(n, n2, send_lo)[0],
                                        _owner_block(n, n2, send_hi - 1)[1]))
        began = env.now
        in_flight = fabric.isend(rank, partner, payload,
                                 tag=(channel_key, t), nbytes=nbytes)
        recv_bytes, merge_time = _absorb((yield from _recv(t)))
        if merge_time > 0:
            yield env.timeout(merge_time)
        if not in_flight.processed:
            yield in_flight
        _emit_hop(t, began, sum(nbytes), recv_bytes, merge_time)

    # ---- final fold: every contribution of the owned block is local -------
    results: Dict[int, Lanes] = {}
    merged_bytes = [0.0] * lanes
    lo, hi = _owner_block(n, n2, rank)
    for j in range(lo, hi):
        state = states[j]
        _accumulate(merged_bytes, state.fold(reduce_op))
        if not state.complete:  # pragma: no cover - algorithm invariant
            raise RuntimeError(
                f"hd rank {rank} segment {j}: only {state.count}/{n} "
                f"contributions folded")
        results[j] = state.acc
    merge_time = max(merged_bytes) / merge_bandwidth
    if merge_time > 0:
        yield env.timeout(merge_time)
    return results


class HalvingDoublingCollective(CollectiveAlgorithm):
    """Recursive halving reduce-scatter (``log2(N)`` rounds)."""

    name = "hd"

    def step(self, comm: Any, rank: int, segments: Dict[int, Lanes],
             reduce_op: ReduceOp) -> Generator:
        return hd_reduce_scatter_rank(
            comm.fabric, rank, comm.size, segments, reduce_op,
            comm.cluster.config.merge_bandwidth, **comm.hop_context(rank))


# ------------------------------------------------------------- hierarchical
class HierarchicalCollective(CollectiveAlgorithm):
    """Two-level reduce: intra-host leader gather + inter-host chain walk.

    Phase 1 (intra-host, parallel): every non-leader rank ships its split
    segments to its host's leader over loopback, one message over the
    lanes. Phase 2 (inter-host): each local segment's accumulator (its
    lanes) starts at the chain-start rank's host and visits the hosts in
    rank order; each leader folds its members' contributions one at a time
    — exactly the canonical chain — then forwards it. Sequential depth per
    segment is the number of host runs (≈ H) instead of ``N - 1``.
    """

    name = "hierarchical"

    def validate(self, comm: Any) -> None:
        if not comm.topology_aware:
            raise ValueError(
                "hierarchical collective requires topology_aware=True "
                "(host grouping needs hostname-contiguous ranks)")
        host_blocks(comm.ranked)  # raises on non-contiguous hosts

    def reduce_scatter(self, comm: Any, values: Sequence[Any],
                       split_op: SplitOp, reduce_op: ReduceOp,
                       stream: Optional[Stream] = None) -> Generator:
        if stream is not None:
            raise ValueError(
                "hierarchical cannot take a stream: every leader gathers "
                "its members before any segment walks")
        env, fabric, bus = comm.env, comm.fabric, comm.bus
        n, p_total = comm.size, comm.parallelism
        merge_bw = comm.cluster.config.merge_bandwidth
        recv_timeout = comm.recv_timeout
        blocks = host_blocks(comm.ranked)
        leader_of_block = [ranks[0] for _host, ranks in blocks]
        block_of: Dict[int, int] = {}
        for bi, (_host, ranks) in enumerate(blocks):
            for r in ranks:
                block_of[r] = bi

        #: contrib[origin_rank] = {local_index: raw split lanes}
        contrib: Dict[int, Dict[int, Lanes]] = {}

        def member_proc(rank: int):
            leader = leader_of_block[block_of[rank]]
            local = comm.split_lanes(values[rank], split_op)
            if rank == leader:
                contrib[rank] = local
            else:
                nbytes = [0.0] * p_total
                for lanes in local.values():
                    _accumulate(nbytes, map(sim_sizeof, lanes))
                yield fabric.isend(rank, leader, (rank, local),
                                   tag=("hg", rank), nbytes=tuple(nbytes))

        def leader_gather(bi: int):
            _host, ranks = blocks[bi]
            leader = ranks[0]
            for r in ranks[1:]:
                origin, local = yield from recv_or_lost(
                    fabric, leader, ("hg", r), recv_timeout,
                    lambda: f"hierarchical leader {leader} heard nothing "
                            f"from member rank {r} for {recv_timeout:g}s")
                contrib[origin] = local

        members = [comm._track(env.process(member_proc(r),
                                           name=f"hier:member{r}"))
                   for r in range(n)]
        gathers = [comm._track(env.process(leader_gather(bi),
                                           name=f"hier:gather{bi}"))
                   for bi in range(len(blocks))]
        for proc in members:
            yield proc
        for proc in gathers:
            yield proc

        def walk(j: int):
            # Host runs of the chain j, j+1, ..., j+n-1 (mod n); the
            # start host may appear twice (its suffix opens the chain,
            # its prefix closes it).
            runs: List[Tuple[int, List[int]]] = []
            for s in range(n):
                r = (j + s) % n
                bi = block_of[r]
                if runs and runs[-1][0] == bi:
                    runs[-1][1].append(r)
                else:
                    runs.append((bi, [r]))
            acc: Optional[Lanes] = None
            cur_leader: Optional[int] = None
            for hop, (bi, run) in enumerate(runs):
                leader = leader_of_block[bi]
                began = env.now
                tracing = bus is not None and bus.active
                send_bytes = 0.0
                if cur_leader is not None and leader != cur_leader:
                    tag = (channel_str(("hw", j)), hop)
                    nbytes = tuple(map(sim_sizeof, acc))
                    send_bytes = sum(nbytes)
                    yield from fabric.send(cur_leader, leader, acc, tag=tag,
                                           nbytes=nbytes)
                    acc = yield from recv_or_lost(
                        fabric, leader, tag, recv_timeout,
                        lambda: f"hierarchical segment {j} lost its "
                                f"accumulator between leaders {cur_leader} "
                                f"and {leader}")
                cur_leader = leader
                merged_bytes = [0.0] * p_total
                for r in run:
                    value = contrib[r][j]
                    if acc is None:
                        acc = value
                    else:
                        acc = tuple(map(reduce_op, value, acc))
                        _accumulate(merged_bytes, map(sim_sizeof, acc))
                merge_time = max(merged_bytes) / merge_bw
                if merge_time > 0:
                    yield env.timeout(merge_time)
                if tracing and bus.active:
                    record_hop(
                        bus, time=env.now, rank=leader,
                        executor_id=comm.ranked[leader].executor_id,
                        channel="hier", hop=hop, began=began, lanes=p_total,
                        send_bytes=send_bytes,
                        recv_bytes=sum(map(sim_sizeof, acc)),
                        merge_time=merge_time, parent_span_id=comm.span_id)
            return cur_leader, acc

        walks = [comm._track(env.process(walk(j), name=f"hier:s{j}"))
                 for j in range(n)]
        walked = []
        for proc in walks:
            walked.append((yield proc))
        owned: Dict[int, Dict[int, Any]] = {}
        for p in range(p_total):
            for j, (leader, acc) in enumerate(walked):
                owned.setdefault(leader, {})[p * n + j] = acc[p]
        return owned


#: every reduce-scatter algorithm by name, in the order the cost model
#: prices them (:mod:`repro.comm.cost`; a tie goes to the first)
COLLECTIVE_ALGORITHMS: Dict[str, CollectiveAlgorithm] = {
    algo.name: algo for algo in (
        RingCollective(), PipelinedRingCollective(),
        HalvingDoublingCollective(), HierarchicalCollective())}
