"""Reference MPI-style collectives (the paper's comparison baseline).

The paper measures MPICH 3.2 as "closest to optimal network performance"
(Figures 12/13/15) and notes that for Figure 15 "this MPI implementation
chooses to use a sub-optimal algorithm, leading to worse scalability even
with MPI's advantage in point-to-point communication bandwidth". This
module reproduces that baseline:

* :class:`MpiCommunicator` with ``reduce_scatter`` in three algorithms —
  **ring** (Patarasuk & Yuan), **recursive halving** (MPICH's choice for
  short commutative reductions) and **pairwise exchange** (MPICH's choice
  for long ones) — plus **binomial-tree reduce** and **allreduce**
  (recursive doubling for short messages, Rabenseifner-style
  reduce-scatter + allgather for long ones; Thakur et al. 2005).
* ``algorithm="auto"`` applies MPICH's size-based selection rule, which is
  exactly what produces the baseline's sub-optimal large-message behaviour
  on a multi-executor-per-node cluster: both halving and pairwise pair
  *strided* ranks, so nearly every byte crosses a NIC, while the scalable
  communicator's hostname-sorted ring keeps most hops on the memory bus.

Rank placement follows ``mpirun`` hostfile convention: ranks fill node
after node (hostname-sorted), one rank per executor slot.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from ..cluster.placement import Cluster, ExecutorSlot
from ..serde import sim_sizeof
from ..sim import Environment
from .fabric import CommFabric
from .ring import ring_allgather_rank, ring_reduce_scatter_rank
from .transport import TransportSpec, mpi_transport

__all__ = ["MpiCommunicator", "MPICH_RS_SHORT_THRESHOLD"]

ReduceOp = Callable[[Any, Any], Any]
SplitOp = Callable[[Any, int, int], Any]
ConcatOp = Callable[[Sequence[Any]], Any]

#: MPICH switches reduce_scatter from recursive halving to pairwise
#: exchange above 512 KB of total data (commutative case).
MPICH_RS_SHORT_THRESHOLD = 512 * 1024


def _largest_power_of_two_leq(n: int) -> int:
    p = 1
    while p * 2 <= n:
        p *= 2
    return p


class MpiCommunicator:
    """MPI-grade collectives over the simulated cluster."""

    def __init__(self, cluster: Cluster,
                 slots: Optional[Sequence[ExecutorSlot]] = None,
                 transport: Optional[TransportSpec] = None):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.transport = transport or mpi_transport(cluster.config)
        chosen = list(slots) if slots is not None else list(cluster.executors)
        if not chosen:
            raise ValueError("communicator needs at least one rank")
        # mpirun hostfile order: node by node.
        chosen.sort(key=lambda s: (s.hostname, s.executor_id))
        self.ranked: List[ExecutorSlot] = chosen
        self.size = len(chosen)
        self.fabric = CommFabric(cluster.network, self.transport)
        for rank, slot in enumerate(self.ranked):
            self.fabric.register(rank, slot.node)
        self.merge_bandwidth = cluster.config.merge_bandwidth

    # ------------------------------------------------------------------ utils
    def _merge_cost(self, value: Any) -> float:
        return sim_sizeof(value) / self.merge_bandwidth

    def select_reduce_scatter_algorithm(self, total_bytes: float) -> str:
        """MPICH's size-based algorithm selection for reduce_scatter."""
        if total_bytes < MPICH_RS_SHORT_THRESHOLD:
            return "recursive_halving"
        return "pairwise"

    # ---------------------------------------------------------- reduce_scatter
    def reduce_scatter(self, values: Sequence[Any], split_op: SplitOp,
                       reduce_op: ReduceOp,
                       algorithm: str = "auto") -> Generator:
        """Process body: reduce-scatter with the chosen algorithm.

        Returns ``{rank: {segment_index: reduced_segment}}``. Depending on
        the algorithm a rank may own zero segments (recursive halving
        removes ``N - 2^k`` ranks in its pre-phase) or exactly one.
        """
        if len(values) != self.size:
            raise ValueError(
                f"expected {self.size} values, got {len(values)}"
            )
        if algorithm == "auto":
            algorithm = self.select_reduce_scatter_algorithm(
                sim_sizeof(values[0]))
        if algorithm == "ring":
            return (yield from self._ring_rs(values, split_op, reduce_op))
        if algorithm == "recursive_halving":
            return (yield from self._halving_rs(values, split_op, reduce_op))
        if algorithm == "pairwise":
            return (yield from self._pairwise_rs(values, split_op, reduce_op))
        raise ValueError(f"unknown reduce_scatter algorithm {algorithm!r}")

    def _ring_rs(self, values, split_op, reduce_op) -> Generator:
        env = self.env
        n = self.size

        def rank_proc(rank: int):
            segments = {j: (split_op(values[rank], j, n),)  # one lane
                        for j in range(n)}
            idx, (segment,) = yield from ring_reduce_scatter_rank(
                self.fabric, rank, n, segments, reduce_op,
                self.merge_bandwidth, channel="mpi-ring")
            return rank, {idx: segment}

        procs = [env.process(rank_proc(r)) for r in range(n)]
        owned: Dict[int, Dict[int, Any]] = {}
        for proc in procs:
            rank, result = yield proc
            owned[rank] = result
        return owned

    def _pairwise_rs(self, values, split_op, reduce_op) -> Generator:
        """Pairwise exchange: step ``i`` pairs rank ``r`` with ``r ± i``."""
        env = self.env
        n = self.size
        if n == 1:
            return {0: {0: split_op(values[0], 0, 1)}}

        def rank_proc(rank: int):
            contributions = {j: split_op(values[rank], j, n)
                             for j in range(n)}
            accum = contributions[rank]
            for i in range(1, n):
                to = (rank + i) % n
                frm = (rank - i) % n
                tag = ("pw", i)
                in_flight = self.fabric.isend(rank, to,
                                              contributions[to], tag=tag)
                incoming = yield from self.fabric.recv(rank, tag=tag)
                accum = reduce_op(accum, incoming)
                yield env.timeout(self._merge_cost(accum))
                if not in_flight.processed:
                    yield in_flight
            return rank, {rank: accum}

        procs = [env.process(rank_proc(r)) for r in range(n)]
        owned: Dict[int, Dict[int, Any]] = {}
        for proc in procs:
            rank, result = yield proc
            owned[rank] = result
        return owned

    def _halving_rs(self, values, split_op, reduce_op) -> Generator:
        """Recursive halving with the MPICH non-power-of-two pre-phase."""
        env = self.env
        n = self.size
        p2 = _largest_power_of_two_leq(n)
        rem = n - p2
        if n == 1:
            return {0: {0: split_op(values[0], 0, 1)}}

        def rank_proc(rank: int):
            segments = {j: split_op(values[rank], j, p2) for j in range(p2)}
            # --- pre-phase: fold the first `rem` odd ranks into their even
            # neighbours so a power-of-two group remains.
            if rank < 2 * rem:
                if rank % 2 == 1:
                    yield from self.fabric.send(rank, rank - 1, segments,
                                                tag=("rh-pre", rank))
                    return rank, {}
                incoming = yield from self.fabric.recv(
                    rank, tag=("rh-pre", rank + 1))
                for j in range(p2):
                    segments[j] = reduce_op(segments[j], incoming[j])
                yield env.timeout(sum(
                    self._merge_cost(segments[j]) for j in range(p2)))
                group_rank = rank // 2
            else:
                group_rank = rank - rem
            # --- recursive halving among the 2^k group.
            lo, hi = 0, p2
            while hi - lo > 1:
                half = (hi - lo) // 2
                mid = lo + half
                step = ("rh", hi - lo)
                if (group_rank - lo) < half:
                    partner_group = group_rank + half
                    send_rng = range(mid, hi)
                    keep_rng = range(lo, mid)
                else:
                    partner_group = group_rank - half
                    send_rng = range(lo, mid)
                    keep_rng = range(mid, hi)
                partner = self._ungroup(partner_group, rem)
                outgoing = {j: segments[j] for j in send_rng}
                in_flight = self.fabric.isend(rank, partner, outgoing,
                                              tag=step)
                incoming = yield from self.fabric.recv(rank, tag=step)
                merge_cost = 0.0
                for j, seg in incoming.items():
                    segments[j] = reduce_op(segments[j], seg)
                    merge_cost += self._merge_cost(segments[j])
                yield env.timeout(merge_cost)
                if not in_flight.processed:
                    yield in_flight
                if (group_rank - lo) < half:
                    hi = mid
                else:
                    lo = mid
            return rank, {lo: segments[lo]}

        procs = [env.process(rank_proc(r)) for r in range(n)]
        owned: Dict[int, Dict[int, Any]] = {}
        for proc in procs:
            rank, result = yield proc
            owned[rank] = result
        return owned

    @staticmethod
    def _ungroup(group_rank: int, rem: int) -> int:
        """Inverse of the pre-phase relabelling: group rank -> real rank."""
        if group_rank < rem:
            return group_rank * 2
        return group_rank + rem

    # ------------------------------------------------------------------ reduce
    def reduce(self, values: Sequence[Any], split_op: SplitOp,
               reduce_op: ReduceOp, root: int = 0) -> Generator:
        """Process body: binomial-tree reduce of whole values to ``root``.

        Returns the fully reduced value (held at ``root``).
        """
        if len(values) != self.size:
            raise ValueError(
                f"expected {self.size} values, got {len(values)}")
        env = self.env
        n = self.size
        result_box: Dict[str, Any] = {}

        def rank_proc(rank: int):
            # Relative rank so any root works with the same binomial tree.
            rel = (rank - root) % n
            value = split_op(values[rank], 0, 1)
            mask = 1
            while mask < n:
                if rel & mask:
                    dest = ((rel - mask) + root) % n
                    yield from self.fabric.send(rank, dest, value,
                                                tag=("bt", mask))
                    return
                src_rel = rel + mask
                if src_rel < n:
                    incoming = yield from self.fabric.recv(
                        rank, tag=("bt", mask))
                    value = reduce_op(value, incoming)
                    yield env.timeout(self._merge_cost(value))
                mask <<= 1
            result_box["value"] = value

        procs = [env.process(rank_proc(r)) for r in range(n)]
        for proc in procs:
            yield proc
        return result_box["value"]

    # --------------------------------------------------------------- allreduce
    def allreduce(self, values: Sequence[Any], split_op: SplitOp,
                  reduce_op: ReduceOp, concat_op: ConcatOp,
                  algorithm: str = "auto") -> Generator:
        """Process body: allreduce; returns a per-rank list of full results.

        ``auto`` follows Thakur et al.: recursive doubling for short
        messages, reduce-scatter + allgather (Rabenseifner) for long ones.
        """
        if algorithm == "auto":
            algorithm = ("recursive_doubling"
                         if sim_sizeof(values[0]) < MPICH_RS_SHORT_THRESHOLD
                         else "rabenseifner")
        if algorithm == "recursive_doubling":
            return (yield from self._doubling_allreduce(
                values, split_op, reduce_op, concat_op))
        if algorithm == "rabenseifner":
            return (yield from self._rabenseifner_allreduce(
                values, split_op, reduce_op, concat_op))
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")

    def _doubling_allreduce(self, values, split_op, reduce_op,
                            concat_op) -> Generator:
        env = self.env
        n = self.size
        p2 = _largest_power_of_two_leq(n)
        rem = n - p2
        out: List[Any] = [None] * n

        def rank_proc(rank: int):
            value = split_op(values[rank], 0, 1)
            # Pre-phase identical to recursive halving's.
            group_rank = None
            if rank < 2 * rem:
                if rank % 2 == 1:
                    yield from self.fabric.send(rank, rank - 1, value,
                                                tag=("rd-pre", rank))
                else:
                    incoming = yield from self.fabric.recv(
                        rank, tag=("rd-pre", rank + 1))
                    value = reduce_op(value, incoming)
                    yield env.timeout(self._merge_cost(value))
                    group_rank = rank // 2
            else:
                group_rank = rank - rem
            if group_rank is not None:
                mask = 1
                while mask < p2:
                    partner = self._ungroup(group_rank ^ mask, rem)
                    tag = ("rd", mask)
                    in_flight = self.fabric.isend(rank, partner, value,
                                                  tag=tag)
                    incoming = yield from self.fabric.recv(rank, tag=tag)
                    value = reduce_op(value, incoming)
                    yield env.timeout(self._merge_cost(value))
                    if not in_flight.processed:
                        yield in_flight
                    mask <<= 1
            # Post-phase: evens send the final value back to their odds.
            if rank < 2 * rem:
                if rank % 2 == 0:
                    yield from self.fabric.send(rank, rank + 1, value,
                                                tag=("rd-post", rank))
                else:
                    value = yield from self.fabric.recv(
                        rank, tag=("rd-post", rank - 1))
            out[rank] = concat_op([value])

        procs = [env.process(rank_proc(r)) for r in range(n)]
        for proc in procs:
            yield proc
        return out

    def _rabenseifner_allreduce(self, values, split_op, reduce_op,
                                concat_op) -> Generator:
        env = self.env
        n = self.size
        owned = yield env.process(
            self.reduce_scatter(values, split_op, reduce_op,
                                algorithm="ring"))
        out: List[Any] = [None] * n

        def rank_proc(rank: int):
            (idx, value), = owned[rank].items()
            have = yield from ring_allgather_rank(
                self.fabric, rank, n, idx, (value,), channel="rab-ag")
            ordered = [have[i][0] for i in sorted(have)]
            out[rank] = concat_op(ordered)

        procs = [env.process(rank_proc(r)) for r in range(n)]
        for proc in procs:
            yield proc
        return out
