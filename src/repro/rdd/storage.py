"""Block storage: per-executor memory stores and the driver-side tracker.

Mirrors Spark's BlockManager at the granularity this reproduction needs:
cached RDD partitions and shuffle outputs live in executor memory; the
driver tracks which executor holds which block so schedulers can honour
locality and fetches can find their source. Losing an executor drops its
blocks (lineage recompute picks up the pieces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..serde import sim_sizeof

__all__ = ["CachedPartition", "MemoryStore", "BlockTracker", "BlockId"]

#: a cached-partition block: (rdd_id, partition_index)
BlockId = Tuple[int, int]


class CachedPartition(list):
    """A cached partition's rows, owning what consumers derive from them.

    ``derived`` holds a flat re-layout of the rows (the ML layer's
    :class:`~repro.ml.columnar.PartitionColumns`) that is worth building
    once per cached partition rather than once per job. It is reachable
    only through this list, so it is freed with the block: executor loss
    and context teardown need no extra bookkeeping. It never
    travels: pickling yields the plain rows. Replicas of one block (the
    same rows rebuilt on another executor) share one ``derived``: it is
    immutable, and the last replica to go frees it.
    """

    __slots__ = ("derived",)

    def __init__(self, rows: Any = ()):
        super().__init__(rows)
        self.derived: Any = None

    def __reduce__(self):
        return (list, (list(self),))


@dataclass
class _Block:
    data: Any
    sim_bytes: float


class MemoryStore:
    """One executor's in-memory block store.

    ``on_event(op, block_id, nbytes)`` — with ``op`` ``"put"`` or
    ``"fetch"`` (a get that hit) — lets the owning executor
    mirror block traffic onto the observability bus; the store itself
    stays clock-free.
    """

    def __init__(self, executor_id: int, capacity_bytes: float,
                 on_event: Optional[Callable[[str, BlockId, float],
                                             None]] = None):
        self.executor_id = executor_id
        self.capacity_bytes = capacity_bytes
        self.on_event = on_event
        self._blocks: Dict[BlockId, _Block] = {}
        self.used_bytes = 0.0

    def put(self, block_id: BlockId, data: Any,
            sim_bytes: Optional[float] = None) -> float:
        """Store a block; returns its simulated size.

        Overwriting an existing block replaces it (recompute after executor
        recovery). Capacity is tracked but not enforced — the paper's
        workloads fit in MEMORY_ONLY by construction, and an eviction model
        would add noise the figures don't depend on.
        """
        size = float(sim_sizeof(data) if sim_bytes is None else sim_bytes)
        old = self._blocks.get(block_id)
        if old is not None:
            self.used_bytes -= old.sim_bytes
        self._blocks[block_id] = _Block(data, size)
        self.used_bytes += size
        if self.on_event is not None:
            self.on_event("put", block_id, size)
        return size

    def get(self, block_id: BlockId) -> Optional[Any]:
        block = self._blocks.get(block_id)
        if block is None:
            return None
        if self.on_event is not None:
            self.on_event("fetch", block_id, block.sim_bytes)
        return block.data

    def peek(self, block_id: BlockId) -> Optional[Any]:
        """The block's data without counting as a fetch (no event)."""
        block = self._blocks.get(block_id)
        return None if block is None else block.data

    def contains(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def clear(self) -> None:
        self._blocks.clear()
        self.used_bytes = 0.0



class BlockTracker:
    """Driver-side map from block id to the executors holding it."""

    def __init__(self) -> None:
        self._locations: Dict[BlockId, List[int]] = {}

    def register(self, block_id: BlockId, executor_id: int) -> None:
        holders = self._locations.setdefault(block_id, [])
        if executor_id not in holders:
            holders.append(executor_id)

    def locations(self, block_id: BlockId) -> List[int]:
        return list(self._locations.get(block_id, ()))

    def unregister_executor(self, executor_id: int) -> int:
        """Forget every block held by ``executor_id`` (executor loss)."""
        dropped = 0
        for block_id in list(self._locations):
            holders = self._locations[block_id]
            if executor_id in holders:
                holders.remove(executor_id)
                dropped += 1
                if not holders:
                    del self._locations[block_id]
        return dropped
