"""The exact columnar partition fold for gradient ``seqOp``s.

Folding a partition one sample at a time pays closure dispatch, property
chains, a fancy-index gather and shape checks per *sample* for a handful
of flops — the per-record framework overhead Dünner et al. measure in
Spark's local solver. This module keeps a partition's samples as flat
``indices / values / offsets / labels / nnz`` columns and folds them with
one gather, one ``matmul`` per row *length* (which issues the per-row BLAS
dot from C), the gradient's array form and one ordered scatter.

It is the only gradient fold, not a faster approximation of one: every
float operation and its association order is the per-sample loop's
(:meth:`Gradient.add_to` under ``core.aggregation._fold_elements``), so
weights, losses, ``ctx.charged`` and every virtual time are bit-identical
by construction. A row's dot stays the one ``ddot`` over the same
operands that ``SparseVector.dot`` issues: for a stack of ``1xk @ kx1``
products ``np.matmul`` calls exactly that routine once per row, so rows of
equal length share one call from Python. Every reassociating reduction
stays ruled out — ``bincount``, ``einsum``, ``reduceat``, pairwise ``sum``,
numpy's SIMD ``exp`` — however much faster: ``einsum('ij,ij->i')`` differs
from ``ddot`` in the last bit on 77% of rows.

Columns belong to the partition they were built from: a
:class:`~repro.rdd.storage.CachedPartition` keeps them for as long as its
block lives, any other list (an un-cached RDD, a mini-batch sample) gets
columns for the one fold. Nothing is cached at module scope.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, List, Tuple

import numpy as np

from ..obs.events import ColumnarFold
from ..rdd.costing import ELEMENT_OVERHEAD, Costed, sum_in_order
from ..rdd.storage import CachedPartition
from ..rdd.task_context import TaskContext
from .aggregators import support_of
from .gradient import Gradient
from .linalg import LabeledPoint

__all__ = ["PartitionColumns", "columns_of", "ColumnarSeqOp"]


class PartitionColumns:
    """A partition's samples laid out as flat columns.

    Row ``r`` owns entries ``offsets[r]:offsets[r + 1]`` of ``indices`` and
    ``values``, in partition order. ``by_length`` is a second copy with the
    rows stably sorted by length, so that the ``m`` rows of length ``k`` are
    one contiguous block: ``(indices, order, gathered, grouped, blocks)``,
    ``order[i]`` the partition row at sorted position ``i``, ``gathered``
    the buffer a fold gathers the weights into, ``grouped`` the ``(n,)``
    buffer of the sorted rows' dots, and one ``(gathered as (m, 1, k),
    values as (m, k, 1), grouped as (m, 1, 1))`` triple of views per length,
    so a fold makes no view of its own. A partition with fewer than two rows
    per distinct length has ``None``: nothing to batch there, and building
    the copy costs more than the row walk it would save.
    """

    __slots__ = ("num_rows", "num_cols", "indices", "values", "offsets",
                 "labels", "nnz", "by_length", "_support", "__weakref__")

    def __init__(self, points: List[LabeledPoint], num_cols: int):
        rows = [p.features for p in points]
        if {row.size for row in rows} - {num_cols}:
            i = next(i for i, row in enumerate(rows) if row.size != num_cols)
            raise ValueError(
                f"sample {i} has {rows[i].size} features, "
                f"expected {num_cols}")
        n = len(rows)
        self.num_rows = n
        self.num_cols = int(num_cols)
        if n:
            self.indices = np.concatenate([row.indices for row in rows])
            self.values = np.concatenate([row.values for row in rows])
        else:
            self.indices = np.empty(0, dtype=np.int64)
            self.values = np.empty(0, dtype=np.float64)
        lengths = [row.indices.size for row in rows]
        self.nnz = np.array(lengths, dtype=np.int64)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.nnz, out=self.offsets[1:])
        self.labels = np.fromiter((p.label for p in points),
                                  dtype=np.float64, count=n)
        self._support = None
        self.by_length = None
        counts = Counter(lengths)
        if n < 2 * len(counts):
            return
        order = sorted(range(n), key=lengths.__getitem__)
        values = np.concatenate([rows[r].values for r in order])
        gathered = np.empty(values.size)
        grouped = np.empty((n, 1, 1))
        blocks, row, entry = [], 0, 0
        for k, m in sorted(counts.items()):
            entries = slice(entry, entry + m * k)
            blocks.append((gathered[entries].reshape(m, 1, k),
                           values[entries].reshape(m, k, 1),
                           grouped[row:row + m]))
            row, entry = row + m, entries.stop
        self.by_length = (np.concatenate([rows[r].indices for r in order]),
                          np.array(order), gathered, grouped.reshape(n),
                          blocks)

    def support(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(features, slot)``: the distinct feature indices the rows
        touch, sorted, and each entry's position among them
        (:func:`support_of`), built on first use and kept with the
        columns."""
        if self._support is None:
            self._support = support_of(self.indices, self.num_cols)
        return self._support


def columns_of(data: list, num_cols: int) -> Tuple[PartitionColumns, bool]:
    """``(columns of data, whether they had to be built)``."""
    cached = isinstance(data, CachedPartition)
    columns = data.derived if cached else None
    if (isinstance(columns, PartitionColumns)
            and columns.num_cols == num_cols
            and columns.num_rows == len(data)):
        return columns, False
    columns = PartitionColumns(data, num_cols)
    if cached:
        data.derived = columns
    return columns, True


def _block_dots(columns: PartitionColumns, weights: np.ndarray) -> np.ndarray:
    """Every row's ``w.x`` in partition order: one gather, then one
    ``matmul`` per row length. Its ``1xk @ kx1`` core is the type's ``dot``
    function, so each row gets the ``ddot`` over the same operands that
    ``SparseVector.dot`` issues, called from C (``k == 0`` gives ``+0.0``).
    Both go through the buffers and views on the columns."""
    indices, order, gathered, grouped, blocks = columns.by_length
    np.take(weights, indices, out=gathered)
    for rows, values, out in blocks:
        np.matmul(rows, values, out=out)
    dots = np.empty(columns.num_rows)
    dots[order] = grouped
    return dots


class ColumnarSeqOp(Costed):
    """A gradient ``seqOp``: per-sample reference plus the partition fold.

    Called on one sample it is the plain :class:`Costed` fold —
    ``gradient.add_to`` charged ``nnz * per_nnz`` — which is what IMM
    merges and segment splits see and what the oracle tests compare
    against. The engine's partition folds call :meth:`fold_partition`.
    """

    __slots__ = ("gradient", "weights_of", "per_nnz")

    def __init__(self, gradient: Gradient,
                 weights_of: Callable[[], np.ndarray], per_nnz: float):
        def fold(agg: Any, point: LabeledPoint) -> Any:
            agg.add_stats(
                gradient.add_to(point, weights_of(), agg.payload), 1.0)
            return agg

        def cost(_agg: Any, point: LabeledPoint) -> float:
            return point.features.nnz * per_nnz

        super().__init__(fold, cost)
        self.gradient = gradient
        self.weights_of = weights_of
        self.per_nnz = per_nnz

    def fold_partition(self, acc: Any, data: list, ctx: TaskContext) -> Any:
        n = len(data)
        if n == 0:
            return acc
        weights = self.weights_of()
        columns, built = columns_of(data, weights.shape[0])
        # a fresh modelled-dense partial takes the support and its totals;
        # anything else gets the scatter into its payload
        support = acc.takes_support(int(columns.offsets[-1]))
        if support:
            target, dense, slots = None, False, acc.payload_size
        else:
            target = acc.payload
            dense = isinstance(target, np.ndarray)
            slots = target.shape[0] if dense else target.size
        if slots != columns.num_cols:
            raise ValueError(
                f"dimension mismatch: {columns.num_cols} weights vs "
                f"{slots} payload slots")
        executor = ctx.executor
        bus = executor.sc.event_bus
        if bus.active:
            bus.emit(ColumnarFold.fast(
                time=executor.env.now, executor_id=executor.executor_id,
                partition=ctx.partition_id, rows=n,
                nnz=int(columns.offsets[-1]), built=built,
                span_id=bus.tracer.new_span(),
                parent_span_id=executor._current_task_span))

        # virtual time: charged + c0 + c1 + ..., the per-sample order
        ctx.charged = sum_in_order(
            ctx.charged, columns.nnz * self.per_nnz + ELEMENT_OVERHEAD, n)

        if columns.by_length is None:
            multipliers, live, loss_sum, weight_sum = self._walk_rows(
                acc, columns, weights)
        else:
            multipliers, live, losses = self.gradient.multipliers_and_losses(
                _block_dots(columns, weights), columns.labels)
            loss_sum = sum_in_order(acc.loss_sum, losses, n)
            weight_sum = sum_in_order(acc.weight_sum, 1.0, n)

        indices, values, nnz = columns.indices, columns.values, columns.nnz
        if support:  # the same ordered scatter, onto the support's slots
            features, indices = columns.support()
        if live is not None:  # rows that add nothing, not even 0.0
            entries = np.repeat(live, nnz)
            indices, values, nnz = indices[entries], values[entries], nnz[live]
        contributions = values * np.repeat(multipliers, nnz)
        if support:
            totals = np.zeros(features.size)
            np.add.at(totals, indices, contributions)
            acc.adopt_support(features, totals)
        elif dense:
            np.add.at(target, indices, contributions)
        else:
            target.scatter_add_rows(indices, contributions, np.cumsum(nnz))
        acc.set_stats(loss_sum, weight_sum)
        return acc

    def _walk_rows(self, acc, columns, weights):
        """One ``ddot`` and one scalar gradient call per row, from Python."""
        values = columns.values
        gathered = weights[columns.indices]
        multiplier_and_loss = self.gradient.multiplier_and_loss
        bounds = columns.offsets.tolist()
        multipliers, losses = zip(*[
            multiplier_and_loss(
                float(gathered[lo:hi].dot(values[lo:hi])), label)
            for lo, hi, label in zip(bounds, bounds[1:],
                                     columns.labels.tolist())])
        loss_sum, weight_sum = acc.loss_sum, acc.weight_sum
        for loss in losses:
            loss_sum += loss
            weight_sum += 1.0
        live = None
        if None in multipliers:
            live = np.fromiter((m is not None for m in multipliers),
                               dtype=bool, count=columns.num_rows)
            multipliers = [m for m in multipliers if m is not None]
        return np.array(multipliers), live, loss_sum, weight_sum
