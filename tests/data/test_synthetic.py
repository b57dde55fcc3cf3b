"""Tests for synthetic data generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import lda_corpus, sparse_classification
from repro.ml import LabeledPoint, SparseVector


# ---------------------------------------------------------- classification
def test_classification_shapes():
    points, w = sparse_classification(100, 50, 8, seed=1)
    assert len(points) == 100
    assert w.shape == (50,)
    for p in points:
        assert isinstance(p, LabeledPoint)
        assert p.label in (0.0, 1.0)
        assert p.features.size == 50
        assert 1 <= p.features.nnz <= 50


def same_vector(a, b):
    """Equal size, support and values, bit for bit."""
    return (a.size == b.size and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.values, b.values))


def test_classification_deterministic():
    a, wa = sparse_classification(50, 30, 5, seed=7)
    b, wb = sparse_classification(50, 30, 5, seed=7)
    np.testing.assert_array_equal(wa, wb)
    for pa, pb in zip(a, b):
        assert pa.label == pb.label
        assert same_vector(pa.features, pb.features)


def test_classification_seed_changes_data():
    a, _ = sparse_classification(50, 30, 5, seed=1)
    b, _ = sparse_classification(50, 30, 5, seed=2)
    assert any(pa.features != pb.features for pa, pb in zip(a, b))


def test_classification_labels_follow_ground_truth():
    points, w = sparse_classification(300, 40, 10, seed=3, noise=0.0)
    agree = sum(
        1 for p in points
        if (1.0 if p.features.dot(w) > 0 else 0.0) == p.label)
    assert agree == len(points)  # noise-free: labels exactly linear


def test_classification_nnz_is_heavy_tailed():
    points, _ = sparse_classification(2000, 5000, 20, seed=5)
    sizes = np.array([p.features.nnz for p in points])
    assert 10 < sizes.mean() < 40  # mean near the requested value
    assert sizes.max() > 3 * sizes.mean()  # real tail (straggler source)
    assert sizes.min() >= 1


def test_classification_validation():
    with pytest.raises(ValueError):
        sparse_classification(0, 10, 5)
    with pytest.raises(ValueError):
        sparse_classification(10, 10, 0)
    with pytest.raises(ValueError):
        sparse_classification(10, 10, 11)


def test_classification_is_learnable():
    points, _ = sparse_classification(200, 30, 6, seed=9)
    labels = [p.label for p in points]
    # Not degenerate: both classes present in fair proportion.
    assert 0.2 < np.mean(labels) < 0.8


# ----------------------------------------------------------------- corpora
def test_corpus_shapes():
    docs, topics = lda_corpus(80, 50, 5, 30, seed=1)
    assert len(docs) == 80
    assert topics.shape == (5, 50)
    np.testing.assert_allclose(topics.sum(axis=1), 1.0)
    for doc in docs:
        assert isinstance(doc, SparseVector)
        assert doc.size == 50
        assert doc.values.sum() >= 1
        assert np.all(doc.values == np.round(doc.values))  # counts


def test_corpus_deterministic():
    a, ta = lda_corpus(30, 40, 4, 20, seed=11)
    b, tb = lda_corpus(30, 40, 4, 20, seed=11)
    np.testing.assert_array_equal(ta, tb)
    for da, db in zip(a, b):
        assert same_vector(da, db)


def test_corpus_lengths_heavy_tailed():
    docs, _ = lda_corpus(1000, 200, 4, 40, seed=3)
    lengths = np.array([d.values.sum() for d in docs])
    assert 20 < lengths.mean() < 80
    assert lengths.max() > 3 * lengths.mean()


def test_corpus_topics_have_anchor_structure():
    _docs, topics = lda_corpus(10, 100, 4, 30, seed=5)
    block = 100 // 4
    for k in range(4):
        own_mass = topics[k, k * block:(k + 1) * block].sum()
        assert own_mass > 0.5  # each topic concentrated on its block


def test_corpus_validation():
    with pytest.raises(ValueError):
        lda_corpus(0, 50, 4, 10)
    with pytest.raises(ValueError):
        lda_corpus(10, 3, 4, 10)  # vocab < topics
    with pytest.raises(ValueError):
        lda_corpus(10, 50, 1, 10)
    with pytest.raises(ValueError):
        lda_corpus(10, 50, 4, 0)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 60), features=st.integers(2, 100),
       seed=st.integers(0, 100))
def test_classification_property(n, features, seed):
    nnz = min(5, features)
    points, w = sparse_classification(n, features, nnz, seed=seed)
    assert len(points) == n
    for p in points:
        assert p.features.size == features
        assert np.all(np.diff(p.features.indices) > 0)
