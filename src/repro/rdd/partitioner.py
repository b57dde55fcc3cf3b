"""The partitioner of the tree's keyed shuffle."""

from __future__ import annotations

from typing import Any

__all__ = ["ModuloPartitioner"]


class ModuloPartitioner:
    """For integer keys: ``key mod n``.

    This is what ``treeAggregate`` uses — it keys partial aggregators by
    ``partition_index % scale``, which must land deterministically.
    """

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        return int(key) % self.num_partitions
