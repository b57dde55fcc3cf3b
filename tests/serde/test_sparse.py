"""Sparse kernels, the wire-format policy, and the sizeof extensions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serde import (
    DEFAULT_SPARSE_POLICY,
    SparsePolicy,
    coalesce_chunks,
    densify_sparse,
    density_of,
    merge_sparse,
    representation_of,
    scatter_into,
    sim_dense_sizeof,
    sim_sizeof,
    slice_sparse,
)


# ------------------------------------------------------------------ kernels
def test_coalesce_chunks_dedups_in_order():
    idx, vals = coalesce_chunks(
        [np.array([3, 1, 3]), np.array([1, 7])],
        [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])])
    np.testing.assert_array_equal(idx, [1, 3, 7])
    np.testing.assert_array_equal(vals, [(2.0 + 4.0), (1.0 + 3.0), 5.0])


def test_merge_sparse_matches_dense_sum():
    a_i, a_v = np.array([0, 5]), np.array([1.0, 2.0])
    b_i, b_v = np.array([5, 9]), np.array([3.0, 4.0])
    idx, vals = merge_sparse(a_i, a_v, b_i, b_v)
    dense = densify_sparse(idx, vals, 10)
    expected = np.zeros(10)
    expected[[0, 5, 9]] = [1.0, 5.0, 4.0]
    np.testing.assert_array_equal(dense, expected)


def coalesced(entries):
    """A sorted, unique operand from ``{index: value}``."""
    idx = np.array(sorted(entries), dtype=np.int64)
    return idx, np.array([entries[i] for i in idx.tolist()], dtype=float)


operands = st.dictionaries(
    st.integers(0, 60),
    st.one_of(st.sampled_from((0.0, -0.0)),
              st.floats(-1e6, 1e6, allow_nan=False)),
    max_size=40)


@settings(max_examples=200, deadline=None)
@given(operands, operands)
def test_merge_sparse_is_coalesce_chunks_bit_for_bit(a, b):
    a_i, a_v = coalesced(a)
    b_i, b_v = coalesced(b)
    idx, vals = merge_sparse(a_i, a_v, b_i, b_v)
    ref_idx, ref_vals = coalesce_chunks([a_i, b_i], [a_v, b_v])
    assert idx.dtype == ref_idx.dtype and vals.dtype == ref_vals.dtype
    np.testing.assert_array_equal(idx, ref_idx)
    assert vals.tobytes() == ref_vals.tobytes()


def test_merge_sparse_sums_a_negative_zero_to_a_positive_one():
    idx, vals = merge_sparse(np.array([1, 2]), np.array([-0.0, -0.0]),
                             np.array([2]), np.array([-0.0]))
    np.testing.assert_array_equal(idx, [1, 2])
    assert not np.signbit(vals).any()


def test_slice_sparse_rebases_window():
    idx = np.array([2, 4, 8, 9])
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    s_idx, s_vals = slice_sparse(idx, vals, 4, 9)
    np.testing.assert_array_equal(s_idx, [0, 4])
    np.testing.assert_array_equal(s_vals, [2.0, 3.0])


def test_scatter_into_accumulates_duplicates():
    dense = np.zeros(4)
    scatter_into(dense, np.array([1, 1, 3]), np.array([1.0, 2.0, 4.0]))
    np.testing.assert_array_equal(dense, [0.0, 3.0, 0.0, 4.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 49),
                          st.floats(-1e6, 1e6, allow_nan=False)),
                max_size=200))
def test_coalesce_bit_identical_to_add_at(entries):
    idx = np.array([e[0] for e in entries], dtype=np.int64)
    vals = np.array([e[1] for e in entries])
    reference = np.zeros(50)
    np.add.at(reference, idx, vals)
    u_idx, u_vals = coalesce_chunks([idx], [vals])
    np.testing.assert_array_equal(densify_sparse(u_idx, u_vals, 50),
                                  reference)


# ------------------------------------------------------------------- policy
def test_policy_wire_bytes_and_break_even():
    policy = SparsePolicy()
    # 16 B per sparse element vs 8 B dense: break-even at density 0.5.
    assert policy.sparse_wire_bytes(10) == 160.0
    assert policy.dense_wire_bytes(100) == 800.0
    assert policy.sparse_wire_bytes(49) < policy.dense_wire_bytes(100)
    assert policy.sparse_wire_bytes(50) == policy.dense_wire_bytes(100)
    assert policy.wire_bytes(10, 100) == 160.0
    assert policy.wire_bytes(90, 100) == 800.0


def test_policy_should_densify_threshold():
    policy = SparsePolicy(density_threshold=0.25)
    assert not policy.should_densify(24, 100)
    assert policy.should_densify(25, 100)
    assert not policy.should_densify(0, 0)


def test_policy_validation():
    with pytest.raises(ValueError):
        SparsePolicy(density_threshold=0.0)
    with pytest.raises(ValueError):
        SparsePolicy(density_threshold=1.5)
    with pytest.raises(TypeError):
        SparsePolicy(index_bytes=16.0)  # byte costs are module constants


def test_policy_scale_applies():
    policy = DEFAULT_SPARSE_POLICY
    assert policy.sparse_wire_bytes(10, scale=2.0) == 320.0
    assert policy.wire_bytes(10, 100, scale=3.0) == 480.0


# ------------------------------------------------------ sizeof extensions
class _Sparseish:
    representation = "sparse"
    density = 0.125

    def __sim_size__(self):
        return 100.0

    def __sim_dense_size__(self):
        return 800.0


def test_sim_dense_sizeof_prefers_protocol():
    obj = _Sparseish()
    assert sim_sizeof(obj) == 100.0
    assert sim_dense_sizeof(obj) == 800.0
    # falls back to sim_sizeof for plain values
    assert sim_dense_sizeof(3.0) == sim_sizeof(3.0)


def test_representation_and_density_probes():
    obj = _Sparseish()
    assert representation_of(obj) == "sparse"
    assert density_of(obj) == 0.125
    assert representation_of([1, 2]) == "dense"
    assert density_of(42) == 1.0


def test_heterogeneous_list_sampled_across_whole_list():
    # A list whose expensive elements all sit past the old first-64
    # sampling window: stride sampling must not extrapolate from the
    # cheap prefix alone.
    cheap, costly = 1.0, "x" * 1000
    items = [cheap] * 640 + [costly] * 640
    estimate = sim_sizeof(items)
    true_size = sim_sizeof([cheap]) - sim_sizeof([]) \
        + sim_sizeof([costly]) - sim_sizeof([])
    # per-pair average must reflect both element kinds
    per_item = (estimate - sim_sizeof([])) / len(items)
    assert per_item > 0.4 * (true_size / 2)
    # and a homogeneous list still extrapolates exactly
    uniform = [2.5] * 6400
    assert sim_sizeof(uniform) == pytest.approx(
        (sim_sizeof([2.5] * 64) - sim_sizeof([])) * 100 + sim_sizeof([]))
