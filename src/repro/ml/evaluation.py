"""Model evaluation: binary classification metrics.

The MLlib counterpart (``BinaryClassificationMetrics``) is what a user
would run after the training loops this repository benchmarks; it also
gives the tests sharper ways to assert that models actually learned.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .classification import LinearModel
from .linalg import LabeledPoint

__all__ = ["BinaryClassificationMetrics"]


class BinaryClassificationMetrics:
    """Threshold-based metrics over scored binary predictions.

    Parameters
    ----------
    scores_and_labels:
        ``(score, label)`` pairs with labels in {0, 1}; higher scores mean
        more positive.
    """

    def __init__(self, scores_and_labels: Sequence[Tuple[float, float]]):
        if not scores_and_labels:
            raise ValueError("metrics need at least one scored example")
        pairs = sorted(scores_and_labels, key=lambda sl: -sl[0])
        self.scores = np.array([s for s, _l in pairs])
        self.labels = np.array([l for _s, l in pairs])
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be in {0, 1}")
        self.num_positives = float(self.labels.sum())
        self.num_negatives = float(len(self.labels) - self.num_positives)

    @classmethod
    def from_model(cls, model: LinearModel,
                   points: Sequence[LabeledPoint]
                   ) -> "BinaryClassificationMetrics":
        """Score ``points`` with the model's margin."""
        return cls([(model.margin(p.features), p.label) for p in points])

    # -------------------------------------------------------------- curves
    def roc_curve(self) -> List[Tuple[float, float]]:
        """``(false_positive_rate, true_positive_rate)`` points.

        Swept over every distinct score threshold, anchored at (0,0) and
        (1,1).
        """
        if self.num_positives == 0 or self.num_negatives == 0:
            raise ValueError("ROC needs both classes present")
        tp = np.cumsum(self.labels)
        fp = np.cumsum(1 - self.labels)
        tpr = tp / self.num_positives
        fpr = fp / self.num_negatives
        points = [(0.0, 0.0)]
        points.extend(zip(fpr.tolist(), tpr.tolist()))
        if points[-1] != (1.0, 1.0):
            points.append((1.0, 1.0))
        return points

    def area_under_roc(self) -> float:
        """AUC by trapezoidal integration of the ROC curve."""
        curve = self.roc_curve()
        xs = np.array([x for x, _y in curve])
        ys = np.array([y for _x, y in curve])
        return float(np.trapezoid(ys, xs))

    # ---------------------------------------------------------- thresholded
    def confusion_at(self, threshold: float
                     ) -> Tuple[float, float, float, float]:
        """``(tp, fp, tn, fn)`` when predicting positive above threshold."""
        predicted = self.scores > threshold
        tp = float(np.sum(predicted & (self.labels == 1)))
        fp = float(np.sum(predicted & (self.labels == 0)))
        tn = float(np.sum(~predicted & (self.labels == 0)))
        fn = float(np.sum(~predicted & (self.labels == 1)))
        return tp, fp, tn, fn

    def precision_at(self, threshold: float) -> float:
        tp, fp, _tn, _fn = self.confusion_at(threshold)
        return tp / (tp + fp) if tp + fp > 0 else 0.0

    def recall_at(self, threshold: float) -> float:
        tp, _fp, _tn, fn = self.confusion_at(threshold)
        return tp / (tp + fn) if tp + fn > 0 else 0.0

    def accuracy_at(self, threshold: float) -> float:
        tp, fp, tn, fn = self.confusion_at(threshold)
        return (tp + tn) / (tp + fp + tn + fn)
