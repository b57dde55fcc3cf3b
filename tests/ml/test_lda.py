"""Tests for EM LDA: learning quality and backend equivalence."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.data import lda_corpus
from repro.ml import LDA
from repro.rdd import SparkerContext


@pytest.fixture(scope="module")
def corpus():
    docs, topics = lda_corpus(n_docs=300, vocab_size=60, n_topics=4,
                              doc_length=50, seed=21)
    return docs, topics


def fit(docs, vocab, **kwargs):
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    rdd = sc.parallelize(docs, 8).cache()
    rdd.count()
    defaults = dict(k=4, num_iterations=8, seed=2)
    defaults.update(kwargs)
    return LDA(**defaults).fit(rdd, vocab), sc


def test_log_likelihood_increases(corpus):
    docs, _ = corpus
    model, _sc = fit(docs, 60, num_iterations=10)
    ll = model.log_likelihoods
    assert ll[-1] > ll[0]
    # Mostly monotone (EM guarantees non-decreasing in exact arithmetic).
    increases = sum(1 for a, b in zip(ll, ll[1:]) if b >= a - 1e-6)
    assert increases >= len(ll) - 2


def test_topics_are_distributions(corpus):
    docs, _ = corpus
    model, _sc = fit(docs, 60)
    np.testing.assert_allclose(model.topics.sum(axis=1), 1.0, rtol=1e-9)
    assert np.all(model.topics >= 0)


def test_planted_topics_recovered(corpus):
    docs, true_topics = corpus
    model, _sc = fit(docs, 60, num_iterations=15)
    learned = model.topics / np.linalg.norm(model.topics, axis=1,
                                            keepdims=True)
    planted = true_topics / np.linalg.norm(true_topics, axis=1,
                                           keepdims=True)
    similarity = learned @ planted.T
    # Each planted topic is matched by some learned topic.
    assert similarity.max(axis=0).min() > 0.8


def test_backends_identical(corpus):
    docs, _ = corpus
    tree_model, _ = fit(docs, 60, num_iterations=3, aggregation="tree")
    imm_model, _ = fit(docs, 60, num_iterations=3, aggregation="tree_imm")
    split_model, _ = fit(docs, 60, num_iterations=3, aggregation="split")
    np.testing.assert_allclose(tree_model.topics, imm_model.topics)
    np.testing.assert_allclose(tree_model.topics, split_model.topics)
    np.testing.assert_allclose(tree_model.log_likelihoods,
                               split_model.log_likelihoods)


def test_empty_documents_are_skipped(corpus):
    from repro.ml import SparseVector

    docs, _ = corpus
    padded = list(docs[:50]) + [SparseVector(60, [], [])] * 5
    model, _sc = fit(padded, 60, num_iterations=3)
    assert np.all(np.isfinite(model.topics))


def test_validation():
    with pytest.raises(ValueError):
        LDA(k=1)
    with pytest.raises(ValueError):
        LDA(num_iterations=0)
    with pytest.raises(ValueError):
        LDA(aggregation="bogus")
    sc = SparkerContext(ClusterConfig.laptop())
    rdd = sc.parallelize([], 2)
    with pytest.raises(ValueError):
        LDA().fit(rdd, 0)


def test_lda_records_driver_time(corpus):
    docs, _ = corpus
    _model, sc = fit(docs, 60, num_iterations=2)
    assert sc.stopwatch.total("ml.driver") > 0
    assert sc.stopwatch.total("ml.broadcast") > 0
