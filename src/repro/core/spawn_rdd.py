"""SpawnRDD: statically scheduled tasks over executor-resident state.

Paper §4.3: "SpawnRDD enables task creation with static scheduling. Given a
closure describing the task and a list of executor ids describing the task
locations, SpawnRDD will launch tasks exactly according to the executor
list." Split aggregation uses it to run one task per executor over the
aggregator that the reduced-result stage left in that executor's mutable
object manager.

Unlike ordinary RDDs, SpawnRDD partitions are *not* relocatable: the data
lives only in one executor's memory, so a dead pinned executor fails the
task (the caller restarts the aggregation from its own lineage).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from ..rdd.executor import ExecutorLost
from ..rdd.rdd import RDD
from ..rdd.task_context import TaskContext

if TYPE_CHECKING:  # pragma: no cover
    from ..rdd.context import SparkerContext

__all__ = ["SpawnRDD"]


class SpawnRDD(RDD):
    """One pinned task per entry of ``(executor_id, closure)``."""

    #: closures read executor-resident IMM state — never host-precomputable
    host_compute_pure = False

    def __init__(self, sc: "SparkerContext",
                 tasks: Sequence[Tuple[int, Callable[[TaskContext], Any]]]):
        if not tasks:
            raise ValueError("SpawnRDD needs at least one task")
        super().__init__(sc, deps=[])
        self._tasks: List[Tuple[int, Callable[[TaskContext], Any]]] = list(tasks)
        self.name = "SpawnRDD"

    # ---------------------------------------------------------- construction
    @classmethod
    def from_holders(cls, sc: "SparkerContext",
                     holders: Sequence[Tuple[int, Tuple[int, int]]]
                     ) -> "SpawnRDD":
        """A SpawnRDD reading IMM-merged aggregators from their executors.

        ``holders`` is the ``[(executor_id, object_id), ...]`` list returned
        by :meth:`SparkerContext.run_reduced_job`.
        """
        def reader(object_id: Tuple[int, int]):
            def read(ctx: TaskContext) -> Any:
                value = ctx.executor.object_manager.get(object_id)
                if value is None:
                    raise ExecutorLost(
                        f"aggregator {object_id} is gone from executor "
                        f"{ctx.executor.executor_id}")
                return value
            return read

        return cls(sc, [(executor_id, reader(object_id))
                        for executor_id, object_id in holders])

    @staticmethod
    def cleanup_holders(sc: "SparkerContext",
                        holders: Sequence[Tuple[int, Tuple[int, int]]]
                        ) -> None:
        """Release the IMM objects backing a finished aggregation."""
        for executor_id, object_id in holders:
            try:
                executor = sc.executor_by_id(executor_id)
            except KeyError:  # pragma: no cover - defensive
                continue
            executor.object_manager.clear(object_id)

    # ------------------------------------------------------------- RDD hooks
    def num_partitions(self) -> int:
        return len(self._tasks)

    def compute(self, index: int, ctx: TaskContext) -> list:
        executor_id, closure = self._tasks[index]
        if ctx.executor.executor_id != executor_id:
            raise ExecutorLost(
                f"SpawnRDD partition {index} is pinned to executor "
                f"{executor_id} but ran on {ctx.executor.executor_id}")
        return [closure(ctx)]

    def pinned_executor(self, index: int) -> Optional[int]:
        return self._tasks[index][0]
