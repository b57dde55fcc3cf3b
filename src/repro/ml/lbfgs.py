"""L-BFGS optimization over the distributed aggregation backends.

Modern MLlib trains logistic regression with L-BFGS rather than plain
gradient descent (``ml.classification.LogisticRegression`` →
``breeze.optimize.LBFGS``); each L-BFGS iteration still needs exactly the
global (gradient, loss) sum the paper's aggregation path computes, so the
tree-vs-split trade-off is identical. This implementation:

* computes loss+gradient through the same
  :class:`~repro.ml.optimization.GradientDescent` aggregation machinery
  (``tree`` / ``tree_imm`` / ``split`` backends),
* maintains the last ``history`` (s, y) correction pairs and applies the
  classic two-loop recursion at the driver,
* uses backtracking (Armijo) line search; every probe of a new point costs
  one more distributed pass, exactly as it would on a real cluster.

The driver-side direction computation is charged to the driver clock like
the paper's "Driver" slice.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..core.aggregation import tree_aggregate
from ..core.sai import split_aggregate
from ..core.spec import AggregationSpec
from ..rdd.costing import Costed
from ..rdd.rdd import RDD
from .aggregators import FlatAggregator, concat_op, reduce_op, split_op
from .gradient import Gradient
from .optimization import (
    AGGREGATION_MODES,
    JVM_FLOP_TIME,
    ScaledPayloadValue,
    gradient_seq_op,
)

__all__ = ["LBFGS"]


class LBFGS:
    """Limited-memory BFGS over an RDD of labeled points.

    Parameters mirror MLlib's: ``history`` correction pairs (default 10),
    convergence on relative loss improvement, L2 regularization folded into
    the objective.
    """

    def __init__(self, gradient: Gradient, history: int = 10,
                 max_iterations: int = 25, reg_param: float = 0.0,
                 convergence_tol: float = 1e-6,
                 max_line_search_steps: int = 8,
                 aggregation: str = "tree",
                 spec: Optional[AggregationSpec] = None,
                 size_scale: float = 1.0, sample_scale: float = 1.0,
                 flop_time: float = JVM_FLOP_TIME):
        if aggregation not in AGGREGATION_MODES:
            raise ValueError(
                f"aggregation must be one of {AGGREGATION_MODES}, "
                f"got {aggregation!r}")
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        if max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {max_iterations}")
        self.gradient = gradient
        self.history = history
        self.max_iterations = max_iterations
        self.reg_param = reg_param
        self.convergence_tol = convergence_tol
        self.max_line_search_steps = max_line_search_steps
        self.aggregation = aggregation
        self.spec = AggregationSpec.of(spec)
        self.size_scale = size_scale
        self.sample_scale = sample_scale
        self.flop_time = flop_time

    # -------------------------------------------------------------- internals
    def _loss_and_gradient(self, data: RDD, weights: np.ndarray
                           ) -> Tuple[float, np.ndarray]:
        """One distributed pass: regularized mean loss and gradient."""
        sc = data.sc
        dim = weights.size
        bc = sc.broadcast(ScaledPayloadValue(
            weights, dim * 8.0 * self.size_scale))
        seq_op = gradient_seq_op(self.gradient, lambda: bc.value.value,
                                 self.sample_scale, self.flop_time)
        merge = Costed(lambda a, b: a.merge(b), 0.0)
        size_scale = self.size_scale
        zero = lambda: FlatAggregator(dim, size_scale)  # noqa: E731
        if self.aggregation == "split":
            agg = split_aggregate(data, zero, seq_op, split_op, reduce_op,
                                  concat_op, self.spec, merge_op=merge)
        else:
            agg = tree_aggregate(data, zero, seq_op, merge,
                                 imm=(self.aggregation == "tree_imm"))
        bc.destroy()
        count = agg.weight_sum
        if count <= 0:
            raise ValueError("no samples in the dataset")
        grad = agg.payload / count
        loss = agg.loss_sum / count
        if self.reg_param > 0:
            loss += 0.5 * self.reg_param * float(weights @ weights)
            grad = grad + self.reg_param * weights
        return loss, grad

    def _direction(self, grad: np.ndarray,
                   pairs: Deque[Tuple[np.ndarray, np.ndarray]]
                   ) -> np.ndarray:
        """Two-loop recursion: approximate -H^{-1} grad."""
        q = grad.copy()
        alphas: List[float] = []
        rhos: List[float] = []
        for s, y in reversed(pairs):
            rho = 1.0 / float(y @ s)
            alpha = rho * float(s @ q)
            q -= alpha * y
            alphas.append(alpha)
            rhos.append(rho)
        if pairs:
            s, y = pairs[-1]
            q *= float(s @ y) / float(y @ y)  # initial Hessian scaling
        for (s, y), alpha, rho in zip(pairs, reversed(alphas),
                                      reversed(rhos)):
            beta = rho * float(y @ q)
            q += (alpha - beta) * s
        return -q

    # ---------------------------------------------------------------- optimize
    def optimize(self, data: RDD, initial_weights: np.ndarray
                 ) -> Tuple[np.ndarray, List[float]]:
        """Run L-BFGS; returns final weights and per-iteration losses."""
        sc = data.sc
        weights = np.asarray(initial_weights, dtype=np.float64).copy()
        dim = weights.size
        pairs: Deque[Tuple[np.ndarray, np.ndarray]] = deque(
            maxlen=self.history)
        losses: List[float] = []

        loss, grad = self._loss_and_gradient(data, weights)
        losses.append(loss)
        for _iteration in range(self.max_iterations):
            with sc.stopwatch.span("ml.driver"):
                direction = self._direction(grad, pairs)
                # Two-loop recursion: ~4*history passes over the weight
                # vector.
                drv = (4 * max(len(pairs), 1) * dim * 8.0 * self.size_scale
                       / sc.cluster.config.merge_bandwidth)
                proc = sc.env.process(sc.driver_work(drv))
                sc.env.run(until=proc)

            descent = float(grad @ direction)
            if descent >= 0:  # not a descent direction: restart memory
                pairs.clear()
                direction = -grad
                descent = -float(grad @ grad)

            # Backtracking (Armijo) line search; each probe is one
            # distributed loss/gradient pass.
            step = 1.0
            for _probe in range(self.max_line_search_steps):
                candidate = weights + step * direction
                new_loss, new_grad = self._loss_and_gradient(data, candidate)
                if new_loss <= loss + 1e-4 * step * descent:
                    break
                step *= 0.5
            else:
                losses.append(new_loss)
                break  # line search failed: accept last probe and stop

            s = candidate - weights
            y = new_grad - grad
            if float(y @ s) > 1e-12:  # curvature condition
                pairs.append((s, y))
            improvement = abs(loss - new_loss) / max(abs(loss), 1e-12)
            weights, loss, grad = candidate, new_loss, new_grad
            losses.append(loss)
            if improvement < self.convergence_tol:
                break
        return weights, losses
