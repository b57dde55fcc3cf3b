"""Task definitions: the unit of work shipped to executors.

Three task flavours exist, mirroring Spark plus the paper's addition:

* :class:`ShuffleMapTask` — computes a partition, buckets it by the shuffle
  partitioner with map-side combining, serializes the buckets into the
  executor's shuffle store, and reports a
  :class:`~repro.rdd.shuffle.MapStatus`.
* :class:`ResultTask` — computes a partition, applies the job function, and
  ships the serialized result to the driver.
* :class:`ReducedResultTask` — the paper's reduced-result stage (§4.3):
  like a ResultTask, but the result is merged into the executor's mutable
  object manager *in memory*, and only ``(executor_id, object_id)`` goes
  back to the driver. This is in-memory merge (IMM).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..serde import sim_sizeof
from .costing import ELEMENT_OVERHEAD, cost_of
from .rdd import RDD, ShuffleDependency
from .shuffle import MapStatus
from .task_context import TaskContext

__all__ = ["Task", "ShuffleMapTask", "ResultTask", "ReducedResultTask"]


class Task:
    """One attempt at one partition of one stage."""

    def __init__(self, stage_id: int, stage_attempt: int, rdd: RDD,
                 partition: int, attempt: int):
        self.stage_id = stage_id
        self.stage_attempt = stage_attempt
        self.rdd = rdd
        self.partition = partition
        self.attempt = attempt
        #: FAIR-scheduler pool this task is billed to (None = untagged;
        #: the arbiter maps it to the default pool). Stamped by the DAG
        #: scheduler from the submitting job's scope.
        self.pool = None

    def fetch_plan(self) -> List[Tuple[int, int]]:
        """Shuffle blocks this task will read before computing."""
        return self.rdd.shuffle_reads(self.partition)

    def run(self, ctx: TaskContext) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} stage={self.stage_id}"
                f".{self.stage_attempt} partition={self.partition} "
                f"attempt={self.attempt}>")


class ShuffleMapTask(Task):
    """Map side of a shuffle."""

    def __init__(self, stage_id: int, stage_attempt: int, rdd: RDD,
                 partition: int, attempt: int, dep: ShuffleDependency):
        super().__init__(stage_id, stage_attempt, rdd, partition, attempt)
        self.dep = dep

    def run(self, ctx: TaskContext) -> MapStatus:
        sc = self.rdd.sc
        data = self.rdd.iterator(self.partition, ctx)
        partitioner = self.dep.partitioner
        combine = self.dep.combine_op
        n_out = partitioner.num_partitions
        merge_bw = sc.cluster.config.merge_bandwidth

        ctx.charge(len(data) * ELEMENT_OVERHEAD)
        # Map-side combining: one entry per key per bucket.
        combined: List[Dict[Any, Any]] = [dict() for _ in range(n_out)]
        for key, value in data:
            bucket = combined[partitioner.partition(key)]
            if key in bucket:
                merged = combine(bucket[key], value)
                ctx.charge(sim_sizeof(merged) / merge_bw
                           + cost_of(combine, bucket[key], value))
                bucket[key] = merged
            else:
                bucket[key] = value
        buckets = [list(b.items()) for b in combined]

        store = ctx.executor.shuffle_store
        serde = sc.serde
        sizes = []
        for reduce_index, records in enumerate(buckets):
            nbytes = sim_sizeof(records) if records else 0.0
            if records:
                # Spark serializes every map output bucket immediately.
                ctx.charge(serde.ser_time_bytes(nbytes))
            store.put_bucket(self.dep.shuffle_id, self.partition,
                             reduce_index, records, nbytes)
            sizes.append(nbytes)
        return MapStatus(executor_id=ctx.executor.executor_id,
                         bucket_bytes=tuple(sizes))


class ResultTask(Task):
    """Result side: apply the job function and ship the result home."""

    def __init__(self, stage_id: int, stage_attempt: int, rdd: RDD,
                 partition: int, attempt: int,
                 func: Callable[[int, list, TaskContext], Any]):
        super().__init__(stage_id, stage_attempt, rdd, partition, attempt)
        self.func = func

    def run(self, ctx: TaskContext) -> Any:
        data = self.rdd.iterator(self.partition, ctx)
        return self.func(self.partition, data, ctx)


class ReducedResultTask(Task):
    """IMM task: merge the result into executor memory, not the driver.

    ``func`` computes the task's value; ``reduce_op`` merges it into the
    executor-shared object identified by ``object_id``. The actual merge is
    performed by the executor under the object's lock (see
    :meth:`repro.rdd.executor.Executor.submit`).

    ``on_merged`` is the partition-completion hook of the pipelined
    collective path: called as ``on_merged(executor_id, partition,
    object_id)`` immediately after this task's merge lands, it lets the
    driver-side orchestration stream an executor's finished aggregator
    into the ring while other partitions are still computing. The call
    must be synchronous and cheap — it runs inside the executor's output
    step and consumes no virtual time.
    """

    def __init__(self, stage_id: int, stage_attempt: int, rdd: RDD,
                 partition: int, attempt: int,
                 func: Callable[[int, list, TaskContext], Any],
                 reduce_op: Callable[[Any, Any], Any],
                 object_id: Tuple[int, int],
                 on_merged: Callable[[int, int, Tuple[int, int]], None]
                 | None = None, ordered: bool = False):
        super().__init__(stage_id, stage_attempt, rdd, partition, attempt)
        self.func = func
        self.reduce_op = reduce_op
        self.object_id = object_id
        self.on_merged = on_merged
        #: ordered-merge mode (service concurrency): the task *deposits*
        #: its partial keyed by partition instead of folding in arrival
        #: order; the scheduler folds deposits in sorted partition order
        #: at stage end (see DESIGN.md §16).
        self.ordered = ordered

    def run(self, ctx: TaskContext) -> Any:
        data = self.rdd.iterator(self.partition, ctx)
        return self.func(self.partition, data, ctx)
