"""Tests for evaluation metrics."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.data import lda_corpus, sparse_classification
from repro.ml import (
    LDA,
    BinaryClassificationMetrics,
    LogisticRegressionWithSGD,
    SparseVector,
    log_perplexity,
)
from repro.rdd import SparkerContext


# ----------------------------------------------------------------- metrics
def test_perfect_classifier_auc_is_one():
    pairs = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
    assert BinaryClassificationMetrics(pairs).area_under_roc() == \
        pytest.approx(1.0)


def test_inverted_classifier_auc_is_zero():
    pairs = [(0.9, 0), (0.8, 0), (0.2, 1), (0.1, 1)]
    assert BinaryClassificationMetrics(pairs).area_under_roc() == \
        pytest.approx(0.0)


def test_random_scores_auc_near_half():
    rng = np.random.default_rng(5)
    pairs = [(rng.random(), float(rng.integers(0, 2))) for _ in range(4000)]
    auc = BinaryClassificationMetrics(pairs).area_under_roc()
    assert 0.45 < auc < 0.55


def test_roc_curve_is_monotone_and_anchored():
    rng = np.random.default_rng(7)
    pairs = [(rng.random() + 0.5 * lbl, float(lbl))
             for lbl in rng.integers(0, 2, 200)]
    curve = BinaryClassificationMetrics(pairs).roc_curve()
    assert curve[0] == (0.0, 0.0)
    assert curve[-1] == (1.0, 1.0)
    xs = [x for x, _y in curve]
    ys = [y for _x, y in curve]
    assert xs == sorted(xs)
    assert ys == sorted(ys)


def test_confusion_and_threshold_metrics():
    pairs = [(0.9, 1), (0.6, 0), (0.4, 1), (0.1, 0)]
    metrics = BinaryClassificationMetrics(pairs)
    tp, fp, tn, fn = metrics.confusion_at(0.5)
    assert (tp, fp, tn, fn) == (1, 1, 1, 1)
    assert metrics.precision_at(0.5) == pytest.approx(0.5)
    assert metrics.recall_at(0.5) == pytest.approx(0.5)
    assert metrics.f1_at(0.5) == pytest.approx(0.5)
    assert metrics.accuracy_at(0.5) == pytest.approx(0.5)


def test_degenerate_thresholds():
    metrics = BinaryClassificationMetrics([(0.5, 1), (0.4, 0)])
    assert metrics.precision_at(1.0) == 0.0  # nothing predicted positive
    assert metrics.recall_at(-1.0) == 1.0   # everything predicted positive
    assert metrics.f1_at(1.0) == 0.0


def test_metrics_validation():
    with pytest.raises(ValueError):
        BinaryClassificationMetrics([])
    with pytest.raises(ValueError):
        BinaryClassificationMetrics([(0.5, 2.0)])
    with pytest.raises(ValueError):
        BinaryClassificationMetrics([(0.5, 1.0)]).roc_curve()  # one class


def test_from_model_scores_with_margin():
    points, _ = sparse_classification(300, 40, 8, seed=3)
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    rdd = sc.parallelize(points, 8).cache()
    rdd.count()
    model = LogisticRegressionWithSGD.train(rdd, 40, num_iterations=20,
                                            step_size=2.0)
    metrics = BinaryClassificationMetrics.from_model(model, points)
    assert metrics.area_under_roc() > 0.85  # a trained model separates


# -------------------------------------------------------------- perplexity
def test_perplexity_lower_for_trained_model():
    docs, _ = lda_corpus(200, 50, 4, 40, seed=9)
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    rdd = sc.parallelize(docs, 8).cache()
    rdd.count()
    trained = LDA(k=4, num_iterations=12, seed=1).fit(rdd, 50)
    barely = LDA(k=4, num_iterations=1, seed=1).fit(rdd, 50)
    held_out = docs[:50]
    assert log_perplexity(trained, held_out) < \
        log_perplexity(barely, held_out)


def test_perplexity_empty_corpus_rejected():
    docs, _ = lda_corpus(20, 30, 3, 10, seed=2)
    sc = SparkerContext(ClusterConfig.laptop())
    rdd = sc.parallelize(docs, 4).cache()
    rdd.count()
    model = LDA(k=3, num_iterations=1).fit(rdd, 30)
    with pytest.raises(ValueError):
        log_perplexity(model, [SparseVector(30, [], [])])

