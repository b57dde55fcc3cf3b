"""Distributed gradient descent (MLlib's ``GradientDescent``), with a
pluggable aggregation backend.

Every iteration is the loop the paper profiles end-to-end:

1. **broadcast** the current weights to all nodes,
2. **aggregate** per-sample gradients over the RDD — through vanilla
   ``treeAggregate``, ``treeAggregate`` with IMM, or Sparker's
   ``splitAggregate`` (the ``aggregation`` parameter is the paper's
   "configuration parameter to control whether to use split aggregation"),
3. **update** the weights at the driver (the non-scalable "Driver" slice of
   Figures 3/4/18).

Compute time for user code is virtual: the per-sample cost function (in
seconds on one paper-grade core) is attached to ``seqOp`` via
:class:`~repro.rdd.costing.Costed`, and the broadcast/aggregator sizes are
scaled to paper-scale dimensions through ``size_scale``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.aggregation import tree_aggregate
from ..core.sai import drop_topk_residuals, split_aggregate
from ..core.spec import AggregationSpec
from ..rdd.costing import Costed
from ..rdd.rdd import RDD
from ..serde import DEFAULT_SPARSE_POLICY
from .aggregators import FlatAggregator, concat_op, reduce_op, split_op
from .columnar import ColumnarSeqOp
from .gradient import Gradient
from .updater import Updater

__all__ = ["GradientDescent", "AGGREGATION_MODES", "ScaledPayloadValue",
           "JVM_FLOP_TIME", "gradient_seq_op"]

#: effective seconds per floating-point op in JVM sparse-vector code.
#: Deliberately far above silicon peak: MLlib's per-sample path goes
#: through boxed iterators, closure dispatch and feature standardization,
#: and is calibrated here so the aggregation share of end-to-end time
#: lands in the regime of the paper's Figure 2 (~67% geomean on 8 nodes).
JVM_FLOP_TIME = 2.5e-8

AGGREGATION_MODES = ("tree", "tree_imm", "split")


class ScaledPayloadValue:
    """A broadcast payload whose simulated size is paper-scale."""

    __slots__ = ("value", "sim_bytes")

    def __init__(self, value: np.ndarray, sim_bytes: float):
        self.value = value
        self.sim_bytes = float(sim_bytes)

    def __sim_size__(self) -> float:
        return self.sim_bytes


def gradient_seq_op(gradient: Gradient,
                    weights_of: Callable[[], np.ndarray],
                    sample_scale: float = 1.0,
                    flop_time: float = JVM_FLOP_TIME) -> ColumnarSeqOp:
    """The gradient ``seqOp`` of one pass over the data at ``weights_of()``.

    Folds a sample's gradient and loss into a :class:`FlatAggregator` for
    ``flops_per_nnz * nnz * flop_time`` virtual seconds. ``sample_scale``
    maps a surrogate sample to the number of paper-scale samples it stands
    for (DESIGN.md §2), so one surrogate sample charges the time its whole
    cohort would take on one core.
    """
    return ColumnarSeqOp(
        gradient, weights_of,
        gradient.flops_per_nnz * flop_time * sample_scale)


class GradientDescent:
    """Mini-batch gradient descent over an RDD of labeled points."""

    def __init__(self, gradient: Gradient, updater: Updater,
                 step_size: float = 1.0, num_iterations: int = 10,
                 reg_param: float = 0.0, mini_batch_fraction: float = 1.0,
                 aggregation: str = "tree", depth: int = 2,
                 spec: Optional[AggregationSpec] = None,
                 convergence_tol: float = 0.0,
                 size_scale: float = 1.0, sample_scale: float = 1.0,
                 flop_time: float = JVM_FLOP_TIME):
        if aggregation not in AGGREGATION_MODES:
            raise ValueError(
                f"aggregation must be one of {AGGREGATION_MODES}, "
                f"got {aggregation!r}")
        if num_iterations < 1:
            raise ValueError(f"num_iterations must be >= 1: {num_iterations}")
        if not 0.0 < mini_batch_fraction <= 1.0:
            raise ValueError(
                f"mini_batch_fraction in (0, 1] required: "
                f"{mini_batch_fraction}")
        self.gradient = gradient
        self.updater = updater
        self.step_size = step_size
        self.num_iterations = num_iterations
        self.reg_param = reg_param
        self.mini_batch_fraction = mini_batch_fraction
        self.aggregation = aggregation
        self.depth = depth
        self.spec = AggregationSpec.of(spec)
        self.convergence_tol = convergence_tol
        self.size_scale = size_scale
        self.sample_scale = sample_scale
        self.flop_time = flop_time

    # ------------------------------------------------------------------ run
    def optimize(self, data: RDD,
                 initial_weights: np.ndarray
                 ) -> Tuple[np.ndarray, List[float]]:
        """Train; returns final weights and the per-iteration loss history."""
        sc = data.sc
        weights = np.asarray(initial_weights, dtype=np.float64).copy()
        dim = weights.size
        losses: List[float] = []
        drop_topk_residuals(sc)

        for iteration in range(1, self.num_iterations + 1):
            with sc.stopwatch.span("ml.broadcast"):
                bc = sc.broadcast(ScaledPayloadValue(
                    weights, dim * 8.0 * self.size_scale))

            agg = self._aggregate(data, bc, dim, iteration)
            bc.destroy()

            count = agg.weight_sum
            if count <= 0:
                raise ValueError(
                    "no samples contributed this iteration "
                    "(mini-batch too small?)")

            # --- driver update (the paper's non-scalable "Driver" slice) --
            with sc.stopwatch.span("ml.driver"):
                # a tree mode can hand the driver a still-sparse (or
                # host-sparse) aggregator; the updater wants a dense array
                grad = agg.to_dense().payload / count
                new_weights, reg_loss = self.updater.compute(
                    weights, grad, self.step_size, iteration, self.reg_param)
                losses.append(agg.loss_sum / count + reg_loss)
                # A few passes over a paper-scale weight vector on one
                # thread.
                driver_seconds = 3.0 * dim * self.size_scale \
                    / sc.cluster.config.merge_bandwidth * 8.0
                proc = sc.env.process(sc.driver_work(driver_seconds))
                sc.env.run(until=proc)

            delta = float(np.linalg.norm(new_weights - weights))
            weights = new_weights
            if self.convergence_tol > 0.0:
                norm = float(np.linalg.norm(weights)) or 1.0
                if delta / norm < self.convergence_tol:
                    break
        return weights, losses

    # ------------------------------------------------------------ internals
    def _aggregate(self, data: RDD, bc, dim: int,
                   iteration: int) -> FlatAggregator:
        batch = data
        if self.mini_batch_fraction < 1.0:
            batch = data.sample(self.mini_batch_fraction, seed=iteration)

        seq_op = gradient_seq_op(self.gradient, lambda: bc.value.value,
                                 self.sample_scale, self.flop_time)
        merge = Costed(lambda a, b: a.merge(b), 0.0)
        size_scale = self.size_scale
        # the seqOp accumulator and the wire-format switch share one
        # policy object for the whole job
        policy = DEFAULT_SPARSE_POLICY if self.spec.sparse else None
        zero = lambda: FlatAggregator(dim, size_scale,  # noqa: E731
                                      policy=policy)

        if self.aggregation == "split":
            return split_aggregate(
                batch, zero, seq_op, split_op, reduce_op, concat_op,
                self.spec, merge_op=merge)
        return tree_aggregate(batch, zero, seq_op, merge, depth=self.depth,
                              imm=(self.aggregation == "tree_imm"))
