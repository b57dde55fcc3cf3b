"""Linear classifiers: logistic regression and linear SVM (MLlib-style).

Table 3 of the paper: Logistic Regression (``regParam=0``,
``elasticNetParam=0``) and SVM (``miniBatchFraction=1.0``,
``regParam=0.01``), both trained by distributed gradient descent whose
per-iteration global sum runs through the selected aggregation backend.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.spec import AggregationSpec
from ..rdd.rdd import RDD
from .gradient import HingeGradient, LogisticGradient
from .linalg import LabeledPoint, SparseVector
from .optimization import JVM_FLOP_TIME, GradientDescent
from .updater import SimpleUpdater, SquaredL2Updater

__all__ = [
    "LinearModel",
    "LogisticRegressionModel",
    "SVMModel",
    "LogisticRegressionWithSGD",
    "SVMWithSGD",
]


class LinearModel:
    """A trained linear decision function ``margin(x) = w . x``."""

    def __init__(self, weights: np.ndarray, losses: List[float]):
        self.weights = np.asarray(weights, dtype=np.float64)
        #: training loss per iteration
        self.losses = list(losses)

    def margin(self, features: SparseVector) -> float:
        return features.dot(self.weights)

    def predict(self, features: SparseVector) -> float:
        """Predicted class label in {0, 1}."""
        return 1.0 if self.margin(features) > 0 else 0.0

    def accuracy(self, points: List[LabeledPoint]) -> float:
        """Fraction of correctly classified points."""
        if not points:
            raise ValueError("accuracy() of an empty sample")
        hits = sum(1 for p in points if self.predict(p.features) == p.label)
        return hits / len(points)


class LogisticRegressionModel(LinearModel):
    pass


class SVMModel(LinearModel):
    pass


class _SGDTrainer:
    """Shared train() plumbing for the two linear models."""

    gradient_cls = None
    model_cls = LinearModel
    default_updater = SimpleUpdater

    @classmethod
    def train(cls, data: RDD, num_features: int,
              num_iterations: int = 10, step_size: float = 1.0,
              reg_param: float = 0.0, mini_batch_fraction: float = 1.0,
              aggregation: str = "tree",
              spec: Optional[AggregationSpec] = None,
              size_scale: float = 1.0, sample_scale: float = 1.0,
              flop_time: float = JVM_FLOP_TIME,
              initial_weights: Optional[np.ndarray] = None,
              convergence_tol: float = 0.0) -> LinearModel:
        """Train on an RDD of :class:`LabeledPoint`.

        ``aggregation`` selects the backend: ``"tree"`` (vanilla Spark),
        ``"tree_imm"`` or ``"split"`` (Sparker) — the paper's §3.1
        configuration switch. ``spec`` carries every reduction knob
        (collective algorithm, parallelism, the density-adaptive sparse
        payload).
        """
        if num_features < 1:
            raise ValueError(f"num_features must be >= 1: {num_features}")
        updater = (SquaredL2Updater() if reg_param > 0
                   else cls.default_updater())
        optimizer = GradientDescent(
            gradient=cls.gradient_cls(),  # type: ignore[misc]
            updater=updater,
            step_size=step_size,
            num_iterations=num_iterations,
            reg_param=reg_param,
            mini_batch_fraction=mini_batch_fraction,
            aggregation=aggregation,
            spec=spec,
            size_scale=size_scale,
            sample_scale=sample_scale,
            flop_time=flop_time,
            convergence_tol=convergence_tol,
        )
        w0 = (np.zeros(num_features) if initial_weights is None
              else np.asarray(initial_weights, dtype=np.float64))
        if w0.size != num_features:
            raise ValueError(
                f"initial weights have {w0.size} features, expected "
                f"{num_features}")
        weights, losses = optimizer.optimize(data, w0)
        return cls.model_cls(weights, losses)


class LogisticRegressionWithSGD(_SGDTrainer):
    """Table 3's LR: logistic loss, no regularization by default."""

    gradient_cls = LogisticGradient
    model_cls = LogisticRegressionModel


class SVMWithSGD(_SGDTrainer):
    """Table 3's SVM: hinge loss, ``regParam=0.01``, full batches."""

    gradient_cls = HingeGradient
    model_cls = SVMModel
