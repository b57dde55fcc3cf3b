"""Tree aggregation: a faithful port of Spark's ``RDD.treeAggregate``.

This is the baseline the paper attacks. The algorithm (Spark 2.x/3.x
``treeAggregate``):

1. **Partial aggregation** — each partition folds its elements into a fresh
   copy of ``zeroValue`` with ``seqOp`` (the "Agg-compute" phase of the
   paper's decompositions).
2. **Tree levels** — while there are many partial aggregators, re-key them
   by ``index mod numPartitions/scale`` and ``foldByKey`` into fewer
   partitions, where ``scale = ceil(numPartitions ** (1/depth))``. Every
   level is a full shuffle of whole aggregators: serialize, transfer,
   deserialize, merge.
3. **Driver reduce** — the surviving partial aggregators are fetched to the
   driver and merged *sequentially on the driver thread*.

Steps 2–3 are the "Agg-reduce" phase; their cost grows with the cluster
because aggregators are indivisible objects here — exactly the paper's
§2.3/§2.4 diagnosis. The ``imm`` variant ("Tree+IMM" in Figure 16) first
merges task results within each executor in memory (no per-task
serialization), then runs the same tree over one aggregator per executor.

Both variants record their phase spans in ``sc.stopwatch`` under
``agg.compute`` / ``agg.reduce`` so the benchmark harness can reproduce the
paper's time decompositions.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Callable

import numpy as np

from ..rdd.costing import ELEMENT_OVERHEAD, Costed, cost_of
from ..rdd.partitioner import ModuloPartitioner
from ..rdd.rdd import RDD, MapPartitionsRDD, ShuffledRDD
from ..rdd.task_context import TaskContext
from .spawn_rdd import SpawnRDD

__all__ = ["tree_aggregate", "fresh_zero", "fold_partition"]


def fresh_zero(zero: Any) -> Any:
    """A private copy of ``zeroValue`` for one task.

    Spark ships a serialized copy of the zero value to every task; sharing
    one mutable zero across tasks would alias their accumulators. Callables
    are treated as factories.
    """
    if callable(zero):
        return zero()
    if isinstance(zero, np.ndarray):
        return zero.copy()
    copier = getattr(zero, "copy", None)
    if callable(copier):
        return copier()
    if isinstance(zero, (int, float, complex, str, bytes, bool,
                         type(None))):
        return zero
    return copy.deepcopy(zero)


def _fold_elements(acc: Any, data: list, seq_op: Callable[[Any, Any], Any],
                   ctx: TaskContext) -> Any:
    """Fold ``data`` into ``acc``, charging per-element virtual cost.

    Equivalent to ``ctx.charge(cost_of(seq_op, acc, x) + ELEMENT_OVERHEAD);
    acc = seq_op(acc, x)`` per element, with the ``Costed`` dispatch hoisted
    out of the loop: this runs once per *sample* per iteration, and the
    three wrapper frames per element (``cost_of`` -> ``Costed.cost`` ->
    ``Costed.__call__``) cost more host time than the fold itself. The
    charge accumulation keeps the exact per-element association order
    (``charged + c0 + c1 + ...``), so charges stay bit-identical.
    """
    if isinstance(seq_op, Costed):
        fn = seq_op.fn
        cost_fn = seq_op.cost_fn
        charged = ctx.charged
        if callable(cost_fn):
            for x in data:
                charged += cost_fn(acc, x) + ELEMENT_OVERHEAD
                ctx.charged = charged
                acc = fn(acc, x)
        else:
            step = float(cost_fn) + ELEMENT_OVERHEAD
            for x in data:
                charged += step
                ctx.charged = charged
                acc = fn(acc, x)
        return acc
    for x in data:
        ctx.charge(cost_of(seq_op, acc, x) + ELEMENT_OVERHEAD)
        acc = seq_op(acc, x)
    return acc


def fold_partition(acc: Any, data: list, seq_op: Callable[[Any, Any], Any],
                   ctx: TaskContext) -> Any:
    """Fold one partition into ``acc``: every aggregation's stage 1.

    A seqOp that declares ``fold_partition(acc, data, ctx)`` (the columnar
    gradient fold, LDA's E-step) folds the partition whole and charges
    what the per-element loop would; any other seqOp runs that loop.
    """
    folder = getattr(seq_op, "fold_partition", None)
    if folder is not None:
        return folder(acc, data, ctx)
    return _fold_elements(acc, data, seq_op, ctx)


def _partial_aggregate_rdd(rdd: RDD, zero: Any,
                           seq_op: Callable[[Any, Any], Any]) -> RDD:
    """Stage-1 RDD: one partial aggregator per partition."""

    def run(_idx: int, data: list, ctx: TaskContext) -> list:
        return [fold_partition(fresh_zero(zero), data, seq_op, ctx)]

    return MapPartitionsRDD(rdd, run, label="partialAggregate")


def _tree_reduce_phase(sc, partial: RDD, comb_op: Callable[[Any, Any], Any],
                       depth: int) -> Any:
    """Steps 2–3: shuffle tree levels, then the sequential driver merge."""
    num_partitions = partial.num_partitions()
    scale = max(int(math.ceil(num_partitions ** (1.0 / depth))), 2)
    current = partial
    level = 0
    while num_partitions > scale + num_partitions // scale:
        num_partitions //= scale
        target = num_partitions

        def rekey(idx: int, data: list, ctx: TaskContext,
                  _target: int = target) -> list:
            ctx.charge(len(data) * ELEMENT_OVERHEAD)
            return [(idx % _target, agg) for agg in data]

        # Stage names matter: obs.critical_path.classify_stage buckets
        # aggregation stages by these labels, mirroring how the paper's
        # authors mined Spark history logs. Level 0's map stage
        # contains the partial aggregation (Agg-compute); later levels are
        # pure reduction.
        keyed = MapPartitionsRDD(current, rekey,
                                 label=f"treeAgg:level{level}")
        current = ShuffledRDD(keyed, ModuloPartitioner(target),
                              combine_op=comb_op).values() \
            .set_name("treeAggValues")
        level += 1
    return sc.reduce(current, comb_op)


def tree_aggregate(rdd: RDD, zero: Any, seq_op: Callable[[Any, Any], Any],
                   comb_op: Callable[[Any, Any], Any], depth: int = 2,
                   imm: bool = False) -> Any:
    """Spark's ``treeAggregate(zeroValue)(seqOp, combOp, depth)``.

    With ``imm=True`` this is the paper's "Tree+IMM" variant: stage 1 runs
    as a reduced-result stage that merges task results inside each executor
    in memory, and the tree then reduces one aggregator per executor.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    sc = rdd.sc
    if rdd.num_partitions() == 0:
        return fresh_zero(zero)

    began = sc.now
    log_mark = len(sc.dag.stage_log)

    if imm:
        def partial_func(_idx: int, data: list, ctx: TaskContext) -> Any:
            return fold_partition(fresh_zero(zero), data, seq_op, ctx)

        with sc.stopwatch.span("agg.compute"):
            holders = sc.run_reduced_job(rdd, partial_func, comb_op)
        with sc.stopwatch.span("agg.reduce"):
            spawned = SpawnRDD.from_holders(sc, holders)
            result = _tree_reduce_phase(sc, spawned, comb_op, depth)
            SpawnRDD.cleanup_holders(sc, holders)
        return result

    partial = _partial_aggregate_rdd(rdd, zero, seq_op)
    first_job = sc.next_job_id
    result = _tree_reduce_phase(sc, partial, comb_op, depth)
    # Decompose: this aggregation's first stage materialized the partials
    # (compute); everything after it is reduction (paper §2.3 methodology).
    # The whole tree is one engine job, submitted before this driver could
    # yield to another tenant of a shared context — whose stages interleave
    # in the log and may still be open. Our own first stage closed inside
    # _tree_reduce_phase, so its duration is a real number here.
    compute = next((stage.duration for stage in sc.dag.stage_log[log_mark:]
                    if stage.job_id == first_job), 0.0)
    total = sc.now - began
    sc.stopwatch.add("agg.compute", min(compute, total))
    sc.stopwatch.add("agg.reduce", max(total - compute, 0.0))
    return result
