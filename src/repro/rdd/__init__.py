"""A from-scratch Spark-like dataflow engine on the simulated cluster.

Implements the substrate the paper's contribution plugs into: RDDs with
lineage, a DAG scheduler with shuffle stage boundaries, executors with task
slots, block/shuffle storage, broadcast, and fault recovery. See
``DESIGN.md`` §3 for the module map.
"""

from .accumulators import Accumulator
from .broadcast import Broadcast
from .context import SparkerContext
from .costing import ELEMENT_OVERHEAD, Costed, cost_of
from .executor import Executor, ExecutorLost, TaskKilled
from .partitioner import HashPartitioner, ModuloPartitioner, Partitioner
from .rdd import (
    RDD,
    CoalescedRDD,
    MapPartitionsRDD,
    ParallelCollectionRDD,
    ShuffledRDD,
    UnionRDD,
)
from .scheduler import DAGScheduler, JobFailed, StageInfo
from .shuffle import FetchFailed, MapOutputTracker
from .speculation import SpeculationLost, SpeculationPolicy
from .storage import BlockTracker, CachedPartition, MemoryStore, StorageLevel
from .task_context import TaskContext

__all__ = [
    "SparkerContext",
    "RDD",
    "ParallelCollectionRDD",
    "MapPartitionsRDD",
    "UnionRDD",
    "CoalescedRDD",
    "ShuffledRDD",
    "Broadcast",
    "Accumulator",
    "Costed",
    "cost_of",
    "ELEMENT_OVERHEAD",
    "Executor",
    "ExecutorLost",
    "TaskKilled",
    "Partitioner",
    "HashPartitioner",
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
    "StorageLevel",
    "TaskContext",
]
