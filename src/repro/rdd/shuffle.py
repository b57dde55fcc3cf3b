"""Shuffle bookkeeping: map-output registry and executor shuffle stores.

A shuffle moves key-value data across a stage boundary. Map tasks bucket
their output by reduce partition, optionally combining values map-side, and
register the buckets with the driver's :class:`MapOutputTracker`. Reduce
tasks fetch every map task's bucket for their partition — from local memory
when the bucket was produced on the same executor, over the network
otherwise — paying serialization both ways, exactly the cost structure that
makes Spark's tree aggregation expensive for large aggregators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["MapStatus", "MapOutputTracker", "ShuffleStore", "FetchFailed"]


class FetchFailed(Exception):
    """A reduce task could not fetch a map output (executor lost).

    The DAG scheduler reacts by resubmitting the parent map stage, which is
    Spark's lineage-based recovery for shuffles.
    """

    def __init__(self, shuffle_id: int, map_index: int, executor_id: int):
        super().__init__(
            f"shuffle {shuffle_id} map {map_index} lost on "
            f"executor {executor_id}")
        self.shuffle_id = shuffle_id
        self.map_index = map_index
        self.executor_id = executor_id


@dataclass
class MapStatus:
    """Where one map task's output lives and how big each bucket is."""

    executor_id: int
    #: simulated serialized bytes per reduce partition
    bucket_bytes: Tuple[float, ...]


class MapOutputTracker:
    """Driver-side registry of completed shuffle map outputs."""

    def __init__(self) -> None:
        self._statuses: Dict[int, Dict[int, MapStatus]] = {}
        self._num_maps: Dict[int, int] = {}

    def register_shuffle(self, shuffle_id: int, num_maps: int) -> None:
        self._statuses.setdefault(shuffle_id, {})
        self._num_maps[shuffle_id] = num_maps

    def register_map_output(self, shuffle_id: int, map_index: int,
                            status: MapStatus) -> None:
        self._statuses[shuffle_id][map_index] = status

    def unregister_executor(self, executor_id: int) -> int:
        """Drop every map output that lived on ``executor_id``."""
        dropped = 0
        for statuses in self._statuses.values():
            for map_index in list(statuses):
                if statuses[map_index].executor_id == executor_id:
                    del statuses[map_index]
                    dropped += 1
        return dropped

    def status(self, shuffle_id: int, map_index: int) -> Optional[MapStatus]:
        return self._statuses.get(shuffle_id, {}).get(map_index)

    def is_complete(self, shuffle_id: int) -> bool:
        statuses = self._statuses.get(shuffle_id)
        if statuses is None:
            return False
        return len(statuses) == self._num_maps.get(shuffle_id, -1)

    def missing_maps(self, shuffle_id: int) -> List[int]:
        statuses = self._statuses.get(shuffle_id, {})
        total = self._num_maps.get(shuffle_id, 0)
        return [i for i in range(total) if i not in statuses]

    def num_maps(self, shuffle_id: int) -> int:
        return self._num_maps.get(shuffle_id, 0)


class ShuffleStore:
    """One executor's shuffle-bucket storage.

    Keyed by ``(shuffle_id, map_index, reduce_index)``; holds the actual
    bucket data (list of key-value pairs) plus its simulated serialized
    size.
    """

    def __init__(self, executor_id: int):
        self.executor_id = executor_id
        self._buckets: Dict[Tuple[int, int, int], Tuple[list, float]] = {}

    def put_bucket(self, shuffle_id: int, map_index: int, reduce_index: int,
                   records: list, sim_bytes: float) -> None:
        self._buckets[(shuffle_id, map_index, reduce_index)] = (
            list(records), float(sim_bytes))

    def get_bucket(self, shuffle_id: int, map_index: int,
                   reduce_index: int) -> Optional[Tuple[list, float]]:
        return self._buckets.get((shuffle_id, map_index, reduce_index))

    def clear(self) -> None:
        self._buckets.clear()
