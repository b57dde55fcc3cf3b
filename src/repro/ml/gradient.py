"""Loss gradients (MLlib's ``Gradient`` hierarchy).

Each gradient is defined by one *scalar* function: from a sample's ``w.x``
and label to the multiplier of its features in the gradient sum and its
loss. The per-sample :meth:`Gradient.add_to` (dot, scalar function,
``axpy`` into the aggregator's payload buffer — the hot path MLlib also
optimizes) calls it; the columnar partition fold (:mod:`repro.ml.columnar`)
calls its array form, :meth:`Gradient.multipliers_and_losses`: the same
expression in the same association order over whole columns, held ``==``
to the scalar definition by test. Element-wise ``+ - * /``, comparisons,
``np.minimum`` and ``np.where`` are exactly rounded, so they are the Python
float operations bit for bit; numpy's SIMD ``exp`` is not libm's, so the
array forms map ``math.exp`` / ``math.log1p`` over the column instead.

Labels follow MLlib conventions: binary classifiers take labels in
``{0, 1}`` and internally map to ``{-1, +1}`` where needed.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from .linalg import LabeledPoint

__all__ = ["Gradient", "LogisticGradient", "HingeGradient",
           "LeastSquaresGradient"]


def _libm(column: np.ndarray, fn: Callable[[float], float]) -> np.ndarray:
    """``fn`` of every element: libm's own, looped from C by ``map``."""
    return np.fromiter(map(fn, column.tolist()), dtype=np.float64,
                       count=column.shape[0])


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

    def multipliers_and_losses(self, dots: np.ndarray, labels: np.ndarray
                               ) -> Tuple[np.ndarray, Optional[np.ndarray],
                                          np.ndarray]:
        """:meth:`multiplier_and_loss` of whole columns, bit for bit.

        ``live`` is ``None`` when every sample has a multiplier, else the
        mask of those that do, and ``multipliers`` holds only theirs. Like
        the scalar form it is silent on ``inf`` and ``nan``.
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

    @np.errstate(all="ignore")
    def multipliers_and_losses(self, dots, labels):
        margins = -dots
        exps = _libm(np.minimum(margins, 500.0), math.exp)
        multipliers = 1.0 / (1.0 + exps) - labels
        # where margin <= 0, exp(min(margin, 500)) is the exp(margin) the
        # loss needs: only a positive margin costs a second exp
        positive = margins > 0
        exps[positive] = _libm(-margins[positive], math.exp)
        log1p_exp = _libm(exps, math.log1p)
        log1p_exp = np.where(positive, margins + log1p_exp, log1p_exp)
        return multipliers, None, np.where(labels > 0, log1p_exp,
                                           log1p_exp - margins)


class HingeGradient(Gradient):
    """SVM hinge loss: ``max(0, 1 - y * w.x)`` with y in {-1,+1}."""

    def multiplier_and_loss(self, dot: float, label: float
                            ) -> Tuple[Optional[float], float]:
        y = 2.0 * label - 1.0  # {0,1} -> {-1,+1}
        slack = 1.0 - y * dot
        if slack > 0:
            return -y, slack
        return None, 0.0

    @np.errstate(all="ignore")
    def multipliers_and_losses(self, dots, labels):
        y = 2.0 * labels - 1.0
        slack = 1.0 - y * dots
        live = slack > 0
        if live.all():
            return -y, None, slack
        return -y[live], live, np.where(live, slack, 0.0)


class LeastSquaresGradient(Gradient):
    """Squared loss for linear regression: ``(w.x - y)^2 / 2``."""

    def multiplier_and_loss(self, dot: float, label: float
                            ) -> Tuple[Optional[float], float]:
        diff = dot - label
        return diff, 0.5 * diff * diff

    @np.errstate(all="ignore")
    def multipliers_and_losses(self, dots, labels):
        diff = dots - labels
        return diff, None, 0.5 * diff * diff
