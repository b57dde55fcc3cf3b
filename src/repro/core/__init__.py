"""The paper's contribution: tree aggregation, split aggregation (SAI), IMM.

* :func:`tree_aggregate` — Spark's baseline ``treeAggregate`` (with an
  ``imm=True`` variant for the paper's "Tree+IMM" ablation),
* :func:`split_aggregate` — Sparker's split aggregation interface backed by
  the PDR ring reduce-scatter; it takes Figure 6's user-written
  ``splitOp`` / ``reduceOp`` / ``concatOp`` callbacks
  (:mod:`repro.ml.aggregators` supplies them for the trainers' flat
  aggregator),
* :class:`SpawnRDD` — statically scheduled tasks (§4.3),
* :class:`MutableObjectManager` — the in-memory merge substrate (§3.2).
"""

from .aggregation import fresh_zero, tree_aggregate, tree_reduce
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
    "fresh_zero",
    "SpawnRDD",
    "MutableObjectManager",
    "ObjectId",
    "StaleMergeError",
]
