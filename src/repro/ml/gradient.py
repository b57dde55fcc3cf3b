"""Loss gradients (MLlib's ``Gradient`` hierarchy).

Each gradient is one *scalar* function: from a sample's ``w.x`` and label
to the multiplier of its features in the gradient sum and its loss. The
per-sample :meth:`Gradient.add_to` (dot, scalar function, ``axpy`` into the
aggregator's payload buffer — the hot path MLlib also optimizes) and the
columnar partition fold (:mod:`repro.ml.columnar`) both call that one
definition, so they cannot drift apart.

Labels follow MLlib conventions: binary classifiers take labels in
``{0, 1}`` and internally map to ``{-1, +1}`` where needed.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .linalg import LabeledPoint

__all__ = ["Gradient", "LogisticGradient", "HingeGradient",
           "LeastSquaresGradient"]


class Gradient:
    """Computes per-sample loss and in-place gradient contributions."""

    def multiplier_and_loss(self, dot: float, label: float
                            ) -> Tuple[Optional[float], float]:
        """``(multiplier, loss)`` of one sample given its ``w.x``.

        The sample adds ``multiplier * features`` to the gradient sum. A
        multiplier of ``None`` means the sample adds nothing at all (no
        ``axpy`` happens); ``0.0`` is an ordinary multiplier and *is*
        added, which a sparse accumulator can tell apart.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def add_to(self, point: LabeledPoint, weights: np.ndarray,
               grad_sum: np.ndarray) -> float:
        """Accumulate this sample's gradient into ``grad_sum``; return loss."""
        multiplier, loss = self.multiplier_and_loss(
            point.features.dot(weights), point.label)
        if multiplier is not None:
            point.features.add_to(grad_sum, multiplier)
        return loss

    #: floating ops per non-zero (dot + axpy), for the compute cost model
    flops_per_nnz: float = 4.0


class LogisticGradient(Gradient):
    """Binary logistic loss: ``log(1 + exp(-y * w.x))`` with y in {-1,+1}."""

    def multiplier_and_loss(self, dot: float, label: float
                            ) -> Tuple[Optional[float], float]:
        # MLlib's formulation: margin = -w.x;
        # multiplier = 1/(1 + exp(margin)) - label = sigma(w.x) - label.
        margin = -dot
        multiplier = 1.0 / (1.0 + math.exp(min(margin, 500.0))) - label
        # loss = log(1 + exp(margin))           for label 1
        #      = log(1 + exp(margin)) - margin  for label 0
        # computed stably for large |margin|.
        if margin > 0:
            log1p_exp = margin + math.log1p(math.exp(-margin))
        else:
            log1p_exp = math.log1p(math.exp(margin))
        return multiplier, (log1p_exp if label > 0 else log1p_exp - margin)


class HingeGradient(Gradient):
    """SVM hinge loss: ``max(0, 1 - y * w.x)`` with y in {-1,+1}."""

    def multiplier_and_loss(self, dot: float, label: float
                            ) -> Tuple[Optional[float], float]:
        y = 2.0 * label - 1.0  # {0,1} -> {-1,+1}
        slack = 1.0 - y * dot
        if slack > 0:
            return -y, slack
        return None, 0.0


class LeastSquaresGradient(Gradient):
    """Squared loss for linear regression: ``(w.x - y)^2 / 2``."""

    def multiplier_and_loss(self, dot: float, label: float
                            ) -> Tuple[Optional[float], float]:
        diff = dot - label
        return diff, 0.5 * diff * diff
