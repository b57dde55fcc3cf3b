"""MLlib-like machine learning on the simulated engine.

Implements the three Table 3 models (logistic regression, linear SVM, LDA)
whose training loops drive every end-to-end figure of the paper, with the
aggregation backend (tree / tree+IMM / split) as a configuration switch.
"""

from .aggregators import (
    AggregatorSegment,
    FlatAggregator,
    SparseAccumulator,
    concat_op,
    reduce_op,
    split_op,
)
from .classification import (
    LinearModel,
    LogisticRegressionModel,
    LogisticRegressionWithSGD,
    SVMModel,
    SVMWithSGD,
)
from .columnar import ColumnarSeqOp, PartitionColumns, columns_of
from .evaluation import BinaryClassificationMetrics
from .gradient import (
    Gradient,
    HingeGradient,
    LeastSquaresGradient,
    LogisticGradient,
)
from .lda import LDA, LDA_TOKEN_TIME, LDAModel
from .linalg import LabeledPoint, SparseVector
from .optimization import (
    AGGREGATION_MODES,
    GradientDescent,
    JVM_FLOP_TIME,
    ScaledPayloadValue,
    gradient_seq_op,
)
from .updater import SimpleUpdater, SquaredL2Updater, Updater

__all__ = [
    "SparseVector",
    "LabeledPoint",
    "FlatAggregator",
    "AggregatorSegment",
    "SparseAccumulator",
    "ColumnarSeqOp",
    "PartitionColumns",
    "columns_of",
    "split_op",
    "reduce_op",
    "concat_op",
    "Gradient",
    "LogisticGradient",
    "HingeGradient",
    "LeastSquaresGradient",
    "Updater",
    "SimpleUpdater",
    "SquaredL2Updater",
    "GradientDescent",
    "AGGREGATION_MODES",
    "JVM_FLOP_TIME",
    "gradient_seq_op",
    "ScaledPayloadValue",
    "LinearModel",
    "LogisticRegressionModel",
    "SVMModel",
    "LogisticRegressionWithSGD",
    "SVMWithSGD",
    "LDA",
    "LDAModel",
    "LDA_TOKEN_TIME",
    "BinaryClassificationMetrics",
]
