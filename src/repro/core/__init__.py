"""The paper's contribution: tree aggregation, split aggregation (SAI), IMM.

* :func:`tree_aggregate` — Spark's baseline ``treeAggregate`` (with an
  ``imm=True`` variant for the paper's "Tree+IMM" ablation),
* :func:`split_aggregate` — Sparker's split aggregation interface backed by
  the PDR ring reduce-scatter,
* :class:`SpawnRDD` — statically scheduled tasks (§4.3),
* :class:`MutableObjectManager` — the in-memory merge substrate (§3.2).
"""

from .aggregation import fresh_zero, tree_aggregate, tree_reduce
from .auto_split import (
    AutoSegment,
    DerivedOps,
    UnsplittableError,
    derive_split_ops,
)
from .imm import MutableObjectManager, ObjectId, StaleMergeError
from .sai import split_aggregate
from .spawn_rdd import SpawnRDD
from .spec import COLLECTIVES, AggregationSpec

__all__ = [
    "tree_aggregate",
    "tree_reduce",
    "split_aggregate",
    "AggregationSpec",
    "COLLECTIVES",
    "derive_split_ops",
    "DerivedOps",
    "AutoSegment",
    "UnsplittableError",
    "fresh_zero",
    "SpawnRDD",
    "MutableObjectManager",
    "ObjectId",
    "StaleMergeError",
]
