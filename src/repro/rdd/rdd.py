"""The RDD abstraction: lineage, transformations, and actions.

A faithful (Python-sized) port of Spark's Resilient Distributed Dataset:
an RDD is an immutable, partitioned collection described by its parent
dependencies and a ``compute`` function. Transformations build lineage
lazily; actions hand the lineage to the DAG scheduler, which runs it on the
simulated cluster. Partition contents are real Python lists, so every
result is exact; task *time* comes from the cost models.

Narrow dependencies recompute through :meth:`RDD.iterator` (which also
implements MEMORY_ONLY caching); shuffle dependencies cut stage boundaries
in the DAG scheduler, exactly as in Spark — this is what makes
``treeAggregate`` a multi-stage job whose reduction costs grow with the
cluster (§2.3 of the paper).

Only the operators an ML job runs are here: ``map`` / ``values`` /
``sample``, ``cache``, the actions ``collect`` / ``count`` / ``foreach``,
and the two aggregations. The one shuffle is the tree's keyed,
map-side-combining :class:`ShuffledRDD`.
"""


from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..serde import sim_sizeof
from .costing import ELEMENT_OVERHEAD, Costed, cost_of
from .partitioner import ModuloPartitioner
from .storage import CachedPartition
from .task_context import TaskContext

if TYPE_CHECKING:  # pragma: no cover
    from .context import SparkerContext

__all__ = [
    "RDD",
    "Dependency",
    "NarrowDependency",
    "ShuffleDependency",
    "ParallelCollectionRDD",
    "MapPartitionsRDD",
    "ShuffledRDD",
]


# --------------------------------------------------------------------------
# Dependencies
# --------------------------------------------------------------------------
class Dependency:
    """Base class for lineage edges."""

    def __init__(self, rdd: "RDD"):
        self.rdd = rdd


class NarrowDependency(Dependency):
    """Child partition ``i`` depends exactly on parent partition ``i``."""


class ShuffleDependency(Dependency):
    """A stage boundary: the parent must be re-bucketed by key.

    ``combine_op(a, b) -> merged`` combines the values of one key on the
    map side and again on the reduce side (Spark's ``foldByKey`` path,
    which ``treeAggregate`` relies on).
    """

    def __init__(self, rdd: "RDD", partitioner: ModuloPartitioner,
                 shuffle_id: int, combine_op: Callable[[Any, Any], Any]):
        super().__init__(rdd)
        self.partitioner = partitioner
        self.shuffle_id = shuffle_id
        self.combine_op = combine_op


# --------------------------------------------------------------------------
# RDD base
# --------------------------------------------------------------------------
class RDD:
    """One distributed dataset in the lineage graph."""

    #: Whether ``compute`` is a pure function of process memory, making it
    #: eligible for host-pool precompute (see :mod:`repro.rdd.hostpool`).
    #: Subclasses whose compute reads executor-resident simulated state
    #: (e.g. SpawnRDD's IMM objects) must set this False.
    host_compute_pure = True

    def __init__(self, sc: "SparkerContext", deps: Sequence[Dependency]):
        self.sc = sc
        self.deps: List[Dependency] = list(deps)
        self.id = sc._register_rdd(self)
        #: MEMORY_ONLY caching on first materialization (see :meth:`cache`)
        self.cached = False
        self.name = type(self).__name__

    # ---- to be provided by subclasses -------------------------------------
    def num_partitions(self) -> int:
        raise NotImplementedError  # pragma: no cover - abstract

    def compute(self, index: int, ctx: TaskContext) -> list:
        """Materialize partition ``index`` (called inside a task)."""
        raise NotImplementedError  # pragma: no cover - abstract

    # ---- engine plumbing ----------------------------------------------------
    def iterator(self, index: int, ctx: TaskContext) -> list:
        """Get-or-compute with MEMORY_ONLY caching (Spark's ``iterator``)."""
        if not self.cached:
            return self.compute(index, ctx)
        store = ctx.executor.memory_store
        block_id = (self.id, index)
        cached = store.get(block_id)
        if cached is not None:
            return cached
        data = CachedPartition(self.compute(index, ctx))
        sc = self.sc
        for holder in sc.block_tracker.locations(block_id):
            # a replica: the same rows, so the same derived layout (host
            # memory and time only; the charge below is paid per replica)
            peer = sc.executor_by_id(holder).memory_store.peek(block_id)
            if peer is not None:
                data.derived = peer.derived
                break
        size = store.put(block_id, data)
        sc.block_tracker.register(block_id, ctx.executor.executor_id)
        # Materializing into the cache costs one pass over the data.
        ctx.charge(size / sc.cluster.config.merge_bandwidth)
        return data

    def shuffle_reads(self, index: int) -> List[Tuple[int, int]]:
        """All ``(shuffle_id, reduce_partition)`` pairs that computing
        partition ``index`` will consume (walking narrow lineage only)."""
        reads: List[Tuple[int, int]] = []
        for dep in self.deps:
            if isinstance(dep, ShuffleDependency):
                reads.append((dep.shuffle_id, index))
            else:
                reads.extend(dep.rdd.shuffle_reads(index))
        return reads

    def preferred_executors(self, index: int) -> List[int]:
        """Executor ids where partition ``index`` would run fastest."""
        if self.cached:
            holders = self.sc.block_tracker.locations((self.id, index))
            if holders:
                return holders
        for dep in self.deps:
            if isinstance(dep, NarrowDependency):
                preference = dep.rdd.preferred_executors(index)
                if preference:
                    return preference
        return []

    def pinned_executor(self, index: int) -> Optional[int]:
        """Hard placement constraint (SpawnRDD overrides); None = free."""
        return None

    # ---- persistence ----------------------------------------------------------
    def cache(self) -> "RDD":
        """Keep partitions in executor memory (MEMORY_ONLY) once computed."""
        self.cached = True
        return self

    def set_name(self, name: str) -> "RDD":
        """Label this RDD (shows up in stage logs and history)."""
        self.name = name
        return self

    # ---- transformations -------------------------------------------------------
    def map(self, f: Callable[[Any], Any]) -> "RDD":
        """Apply ``f`` to every element."""
        def run(_idx: int, data: list, ctx: TaskContext) -> list:
            _charge_elementwise(ctx, f, data)
            return [f(x) for x in data]
        return MapPartitionsRDD(self, run, label="map")

    def values(self) -> "RDD":
        """Second element of every key-value pair."""
        return self.map(lambda kv: kv[1])

    def sample(self, fraction: float, seed: int = 17) -> "RDD":
        """Bernoulli sample of each partition (deterministic per seed)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")

        def run(idx: int, data: list, ctx: TaskContext) -> list:
            ctx.charge(len(data) * ELEMENT_OVERHEAD)
            rng = np.random.default_rng((seed, idx))
            keep = rng.random(len(data)) < fraction
            return [x for x, k in zip(data, keep) if k]
        return MapPartitionsRDD(self, run, label="sample")

    # ---- actions (delegate to the context) -------------------------------------
    def collect(self) -> list:
        """Materialize the whole dataset at the driver."""
        return self.sc.collect(self)

    def count(self) -> int:
        """Number of elements."""
        return self.sc.count(self)

    def tree_aggregate(self, zero: Any, seq_op: Callable, comb_op: Callable,
                       depth: int = 2, imm: bool = False) -> Any:
        """Spark's ``treeAggregate`` (see :mod:`repro.core.aggregation`).

        ``imm=True`` runs the paper's Tree+IMM variant (in-memory merge of
        task results inside each executor before the tree).
        """
        from ..core.aggregation import tree_aggregate
        return tree_aggregate(self, zero, seq_op, comb_op, depth=depth,
                              imm=imm)

    def split_aggregate(self, zero: Any, seq_op: Callable, split_op: Callable,
                        reduce_op: Callable, concat_op: Callable,
                        spec: Any = None, *,
                        merge_op: Optional[Callable] = None) -> Any:
        """Sparker's split aggregation (see :mod:`repro.core.sai`).

        ``spec`` is an :class:`~repro.core.AggregationSpec` carrying the
        collective algorithm, parallelism and recovery policy.
        ``merge_op`` is the executor-local IMM merge over whole aggregators
        (defaults to a whole-object ``splitOp``/``reduceOp`` round-trip,
        valid when aggregator and segment types coincide).
        """
        from ..core.sai import split_aggregate
        return split_aggregate(self, zero, seq_op, split_op, reduce_op,
                               concat_op, spec, merge_op=merge_op)

    def foreach(self, f: Callable[[Any], None]) -> None:
        """Run ``f`` on every element (for side effects)."""
        self.sc.run_job(self, lambda _idx, data, ctx: (
            _charge_elementwise(ctx, f, data),
            [f(x) for x in data],
        )[0])

    def __repr__(self) -> str:
        return (f"<{self.name} id={self.id} "
                f"partitions={self.num_partitions()}>")


def _charge_elementwise(ctx: TaskContext, f: Callable, data: list) -> None:
    """Charge iteration overhead plus any per-element Costed costs."""
    total = len(data) * ELEMENT_OVERHEAD
    if isinstance(f, Costed):
        for x in data:
            total += f.cost(x)
    ctx.charge(total)


# --------------------------------------------------------------------------
# Concrete RDDs
# --------------------------------------------------------------------------
class ParallelCollectionRDD(RDD):
    """Driver data sliced into partitions (``sc.parallelize``)."""

    def __init__(self, sc: "SparkerContext", data: Sequence[Any],
                 num_slices: int):
        if num_slices < 1:
            raise ValueError(f"num_slices must be >= 1, got {num_slices}")
        super().__init__(sc, deps=[])
        self._data = list(data)
        self._slices = min(num_slices, max(1, len(self._data))) \
            if self._data else num_slices
        bounds = np.linspace(0, len(self._data), self._slices + 1)
        self._bounds = [int(round(b)) for b in bounds]

    def num_partitions(self) -> int:
        return self._slices

    def compute(self, index: int, ctx: TaskContext) -> list:
        lo, hi = self._bounds[index], self._bounds[index + 1]
        return self._data[lo:hi]


class MapPartitionsRDD(RDD):
    """The workhorse narrow transformation."""

    def __init__(self, parent: RDD,
                 run: Callable[[int, list, TaskContext], list],
                 label: str = "mapPartitions"):
        super().__init__(parent.sc, deps=[NarrowDependency(parent)])
        self._parent = parent
        self._run = run
        self.name = label

    def num_partitions(self) -> int:
        return self._parent.num_partitions()

    def compute(self, index: int, ctx: TaskContext) -> list:
        data = self._parent.iterator(index, ctx)
        return self._run(index, data, ctx)


class ShuffledRDD(RDD):
    """Reduce side of a shuffle: merges fetched buckets per key."""

    def __init__(self, parent: RDD, partitioner: ModuloPartitioner,
                 combine_op: Callable[[Any, Any], Any]):
        shuffle_id = parent.sc.shuffle_manager_new_id()
        self.dep = ShuffleDependency(parent, partitioner, shuffle_id,
                                     combine_op=combine_op)
        super().__init__(parent.sc, deps=[self.dep])
        parent.sc.map_output_tracker.register_shuffle(
            shuffle_id, parent.num_partitions())

    def num_partitions(self) -> int:
        return self.dep.partitioner.num_partitions

    def compute(self, index: int, ctx: TaskContext) -> list:
        records = ctx.fetched.get((self.dep.shuffle_id, index))
        if records is None:
            raise RuntimeError(
                f"shuffle {self.dep.shuffle_id} partition {index} was not "
                f"fetched before compute — scheduler bug")
        ctx.charge(len(records) * ELEMENT_OVERHEAD)
        merged: Dict[Any, Any] = {}
        op = self.dep.combine_op
        merge_bw = self.sc.cluster.config.merge_bandwidth
        for key, value in records:
            if key in merged:
                combined = op(merged[key], value)
                ctx.charge(sim_sizeof(combined) / merge_bw
                           + cost_of(op, merged[key], value))
                merged[key] = combined
            else:
                merged[key] = value
        return list(merged.items())
