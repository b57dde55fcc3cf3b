"""A from-scratch Spark-like dataflow engine on the simulated cluster.

Implements the substrate the paper's contribution plugs into: RDDs with
lineage, a DAG scheduler with shuffle stage boundaries, executors with task
slots, block/shuffle storage, broadcast, and fault recovery. The RDD API is
the part of Spark an ML job runs: ``parallelize``, ``cache``, ``map``,
``sample``, ``count`` / ``collect`` / ``foreach``, ``tree_aggregate`` and
``split_aggregate``, and the tree's one keyed, map-side-combining shuffle
(:class:`ShuffledRDD` over a :class:`ModuloPartitioner`). See
``DESIGN.md`` §3 for the module map.
"""

from .accumulators import Accumulator
from .broadcast import Broadcast
from .context import SparkerContext
from .costing import ELEMENT_OVERHEAD, Costed, cost_of
from .executor import Executor, ExecutorLost, TaskKilled
from .partitioner import ModuloPartitioner
from .rdd import RDD, MapPartitionsRDD, ParallelCollectionRDD, ShuffledRDD
from .scheduler import DAGScheduler, JobFailed, StageInfo
from .shuffle import FetchFailed, MapOutputTracker
from .speculation import SpeculationLost, SpeculationPolicy
from .storage import BlockTracker, CachedPartition, MemoryStore
from .task_context import TaskContext

__all__ = [
    "SparkerContext",
    "RDD",
    "ParallelCollectionRDD",
    "MapPartitionsRDD",
    "ShuffledRDD",
    "Broadcast",
    "Accumulator",
    "Costed",
    "cost_of",
    "ELEMENT_OVERHEAD",
    "Executor",
    "ExecutorLost",
    "TaskKilled",
    "ModuloPartitioner",
    "DAGScheduler",
    "StageInfo",
    "JobFailed",
    "SpeculationPolicy",
    "SpeculationLost",
    "FetchFailed",
    "MapOutputTracker",
    "BlockTracker",
    "CachedPartition",
    "MemoryStore",
    "TaskContext",
]
