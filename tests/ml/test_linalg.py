"""Tests for sparse vectors and labeled points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import LabeledPoint, SparseVector
from repro.serde import sim_sizeof


def from_dense(dense):
    """The sparse vector holding ``dense``'s nonzeros."""
    dense = np.asarray(dense, dtype=np.float64)
    indices = np.flatnonzero(dense)
    return SparseVector(dense.size, indices, dense[indices])


def test_construction_and_nnz():
    v = SparseVector(10, [1, 5, 9], [1.0, 2.0, 3.0])
    assert v.size == 10
    assert v.nnz == 3


def test_dot_with_dense():
    v = SparseVector(5, [0, 3], [2.0, 4.0])
    w = np.arange(5, dtype=float)
    assert v.dot(w) == pytest.approx(0 * 2 + 3 * 4)


def test_dot_dimension_mismatch():
    v = SparseVector(5, [0], [1.0])
    with pytest.raises(ValueError):
        v.dot(np.zeros(4))


def test_add_to_axpy():
    v = SparseVector(4, [1, 3], [1.0, 2.0])
    dense = np.zeros(4)
    v.add_to(dense, scale=3.0)
    np.testing.assert_allclose(dense, [0, 3, 0, 6])


def test_add_to_dimension_mismatch():
    with pytest.raises(ValueError):
        SparseVector(4, [0], [1.0]).add_to(np.zeros(3))


def test_indices_must_be_increasing():
    with pytest.raises(ValueError):
        SparseVector(5, [3, 1], [1.0, 2.0])
    with pytest.raises(ValueError):
        SparseVector(5, [1, 1], [1.0, 2.0])


def test_indices_out_of_range():
    with pytest.raises(ValueError):
        SparseVector(5, [5], [1.0])
    with pytest.raises(ValueError):
        SparseVector(5, [-1], [1.0])


def test_misaligned_arrays():
    with pytest.raises(ValueError):
        SparseVector(5, [1, 2], [1.0])


def test_sim_size_scales_with_nnz():
    small = SparseVector(1000, [1], [1.0])
    big = SparseVector(1000, list(range(100)), [1.0] * 100)
    # Sparse representation: size depends on nnz, not dimensionality.
    assert sim_sizeof(big) > sim_sizeof(small)
    assert sim_sizeof(small) < 100


def test_labeled_point():
    p = LabeledPoint(1, SparseVector(3, [0], [1.0]))
    assert p.label == 1.0
    assert sim_sizeof(p) == pytest.approx(8 + sim_sizeof(p.features))


def test_empty_sparse_vector():
    v = SparseVector(10, [], [])
    assert v.nnz == 0
    assert v.dot(np.ones(10)) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 50), st.integers(0, 1000))
def test_dot_matches_dense_reference(size, seed):
    rng = np.random.default_rng(seed)
    dense_v = rng.standard_normal(size) * (rng.random(size) < 0.4)
    v = from_dense(dense_v)
    w = rng.standard_normal(size)
    assert v.dot(w) == pytest.approx(float(dense_v @ w), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 50), st.integers(0, 1000))
def test_add_to_matches_dense_reference(size, seed):
    rng = np.random.default_rng(seed)
    dense_v = rng.standard_normal(size) * (rng.random(size) < 0.4)
    v = from_dense(dense_v)
    target = rng.standard_normal(size)
    expected = target + 2.5 * dense_v
    v.add_to(target, 2.5)
    np.testing.assert_allclose(target, expected)
