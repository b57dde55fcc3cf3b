"""Density-adaptive aggregator tests: bit-identity with the dense path.

The adaptive representation (sparse accumulation, threshold densification,
representation-adaptive segment merges) must be *observationally bitwise
equal* to the classic dense ``FlatAggregator`` — same payload bits, same
stats, same split/reduce/concat algebra — while reporting smaller wire
sizes below the break-even density.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.aggregators import (
    AggregatorSegment,
    FlatAggregator,
    SparseAccumulator,
    concat_op,
    reduce_op,
    split_op,
)
from repro.serde import DEFAULT_SPARSE_POLICY, SparsePolicy, sim_sizeof

POLICY = DEFAULT_SPARSE_POLICY


def _scatter(rng, agg, size, n, scale=1.0):
    """Fold n random sparse contributions into agg's payload."""
    for _ in range(n):
        k = int(rng.integers(1, 8))
        idx = rng.choice(size, size=k, replace=False).astype(np.int64)
        vals = rng.standard_normal(k) * scale
        target = agg.payload
        if isinstance(target, np.ndarray):
            np.add.at(target, idx, vals)
        else:
            target.scatter_add(idx, vals)
        agg.add_stats(float(vals.sum()), 1.0)


# ------------------------------------------------------ SparseAccumulator
def test_accumulator_matches_dense_reference():
    rng = np.random.default_rng(0)
    acc = SparseAccumulator(200, POLICY)
    reference = np.zeros(200)
    for _ in range(50):
        idx = rng.choice(200, size=5, replace=False).astype(np.int64)
        vals = rng.standard_normal(5)
        acc.scatter_add(idx, vals)
        np.add.at(reference, idx, vals)
    out = np.zeros(200)
    acc.write_into(out)
    np.testing.assert_array_equal(out, reference)


def test_accumulator_densifies_at_threshold():
    acc = SparseAccumulator(100, SparsePolicy(density_threshold=0.3))
    acc.scatter_add(np.arange(29), np.ones(29))
    acc.coalesce()
    assert not acc.is_dense
    acc.scatter_add(np.array([40]), np.array([1.0]))
    acc.coalesce()
    assert acc.is_dense
    assert acc.nnz == 100  # dense reports full length


def test_accumulator_indices_values_requires_sparse():
    acc = SparseAccumulator(10, POLICY)
    acc.densify()
    with pytest.raises(RuntimeError):
        acc.indices_values()


def test_accumulator_merge_sparse_and_dense():
    a = SparseAccumulator(50, POLICY)
    b = SparseAccumulator(50, POLICY)
    a.scatter_add(np.array([1, 2]), np.array([1.0, 2.0]))
    b.scatter_add(np.array([2, 3]), np.array([3.0, 4.0]))
    a.merge_accumulator(b)
    out = np.zeros(50)
    a.write_into(out)
    assert (out[1], out[2], out[3]) == (1.0, 5.0, 4.0)
    c = SparseAccumulator(50, POLICY)
    c.densify()
    c.scatter_add(np.array([0]), np.array([7.0]))
    a.merge_accumulator(c)  # dense other forces self dense
    assert a.is_dense
    assert a.buf[0] == 7.0 and a.buf[2] == 5.0


# ----------------------------------------------------- AggregatorSegment
def test_sparse_segment_wire_size_switch():
    seg = AggregatorSegment.sparse(
        100, np.array([3, 50]), np.array([1.0, 2.0]), 800.0,
        policy=POLICY)
    assert seg.representation == "sparse"
    assert seg.__sim_size__() == 32.0  # 2 nnz * 16 B
    assert seg.__sim_dense_size__() == 800.0
    assert sim_sizeof(seg) == 32.0


def test_sparse_segment_densifies_at_creation_over_threshold():
    idx = np.arange(60)
    seg = AggregatorSegment.sparse(100, idx, np.ones(60), 800.0,
                                   policy=POLICY)
    assert seg.representation == "dense"
    assert seg.__sim_size__() == 800.0


def test_segment_merge_cases_match_dense():
    rng = np.random.default_rng(1)
    length = 80
    dense_a = np.zeros(length)
    dense_b = np.zeros(length)
    ia = np.sort(rng.choice(length, size=6, replace=False))
    ib = np.sort(rng.choice(length, size=6, replace=False))
    dense_a[ia] = rng.standard_normal(6)
    dense_b[ib] = rng.standard_normal(6)
    expected = dense_a + dense_b

    def sa():
        return AggregatorSegment.sparse(length, ia, dense_a[ia], 640.0,
                                        policy=POLICY)

    def sb():
        return AggregatorSegment.sparse(length, ib, dense_b[ib], 640.0,
                                        policy=POLICY)

    def da():
        return AggregatorSegment(dense_a.copy(), 640.0, policy=POLICY,
                                 owned=True)

    def db():
        return AggregatorSegment(dense_b.copy(), 640.0, policy=POLICY)

    # fresh segments per case: owned destinations merge in place
    for left, right in ((sa, sb), (sa, db), (da, sb), (da, db)):
        merged = left().merge(right())
        np.testing.assert_array_equal(merged.to_array(), expected)
        assert merged.owned


def test_unowned_dense_merge_allocates():
    base = np.ones(10)
    seg = AggregatorSegment(base, 80.0, policy=POLICY, owned=False)
    other = AggregatorSegment(np.ones(10), 80.0, policy=POLICY)
    merged = seg.merge(other)
    assert merged is not seg
    np.testing.assert_array_equal(base, 1.0)  # view untouched


def test_owned_dense_merge_in_place():
    seg = AggregatorSegment(np.ones(10), 80.0, policy=POLICY, owned=True)
    other = AggregatorSegment(np.full(10, 2.0), 80.0)
    merged = seg.merge(other)
    assert merged is seg
    np.testing.assert_array_equal(seg.buf, 3.0)


def test_sparse_sparse_merge_can_switch_to_dense():
    length = 100
    ia = np.arange(0, 30, dtype=np.int64)
    ib = np.arange(25, 55, dtype=np.int64)
    sa = AggregatorSegment.sparse(length, ia, np.ones(30), 800.0,
                                  policy=POLICY)
    sb = AggregatorSegment.sparse(length, ib, np.ones(30), 800.0,
                                  policy=POLICY)
    merged = sa.merge(sb)
    # union nnz = 55 of 100 >= 0.5 threshold -> the merge densifies
    assert merged.representation == "dense"
    assert merged.owned
    expected = np.zeros(length)
    expected[ia] += 1.0
    expected[ib] += 1.0
    np.testing.assert_array_equal(merged.to_array(), expected)


# ------------------------------------------- FlatAggregator adaptive mode
@pytest.mark.parametrize("density", [0.001, 0.01, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("n_segments", [1, 3, 7])
def test_adaptive_bit_identical_across_densities(density, n_segments):
    size = 1000
    rng_d = np.random.default_rng(42)
    rng_a = np.random.default_rng(42)
    dense = FlatAggregator(size, 2.0)
    adaptive = FlatAggregator(size, 2.0, policy=POLICY)
    support = max(1, int(density * size))
    for agg, rng in ((dense, rng_d), (adaptive, rng_a)):
        for _ in range(40):
            idx = rng.choice(support, size=min(4, support),
                             replace=False).astype(np.int64)
            vals = rng.standard_normal(idx.size)
            target = agg.payload
            if isinstance(target, np.ndarray):
                np.add.at(target, idx, vals)
            else:
                target.scatter_add(idx, vals)
            agg.add_stats(float(vals.sum()), 1.0)

    # segment-level algebra: split -> pairwise reduce -> concat
    d_segs = [split_op(dense, i, n_segments) for i in range(n_segments)]
    a_segs = [split_op(adaptive, i, n_segments)
              for i in range(n_segments)]
    d_out = concat_op([reduce_op(s, split_op(dense, s_i, n_segments))
                       for s_i, s in enumerate(d_segs)])
    a_out = concat_op([reduce_op(s, split_op(adaptive, s_i, n_segments))
                       for s_i, s in enumerate(a_segs)])
    np.testing.assert_array_equal(d_out.buf, a_out.buf)
    assert d_out.loss_sum == a_out.loss_sum
    assert d_out.weight_sum == a_out.weight_sum


def test_adaptive_whole_aggregator_merge_matches_dense():
    rng_seed = 7
    size = 300
    variants = []
    for policy in (None, POLICY):
        rng = np.random.default_rng(rng_seed)
        a = FlatAggregator(size, policy=policy)
        b = FlatAggregator(size, policy=policy)
        _scatter(rng, a, size, 25)
        _scatter(rng, b, size, 25)
        a.merge(b)
        a.to_dense()
        variants.append(a)
    dense, adaptive = variants
    np.testing.assert_array_equal(dense.buf, adaptive.buf)


def test_adaptive_mixed_merge_matches_dense():
    size = 300
    rng = np.random.default_rng(3)
    sparse_side = FlatAggregator(size, policy=POLICY)
    dense_side = FlatAggregator(size, policy=POLICY)
    _scatter(rng, sparse_side, size, 10)
    _scatter(rng, dense_side, size, 10)
    dense_side.to_dense()

    rng = np.random.default_rng(3)
    ref_a = FlatAggregator(size)
    ref_b = FlatAggregator(size)
    _scatter(rng, ref_a, size, 10)
    _scatter(rng, ref_b, size, 10)

    # sparse.merge(dense) and dense.merge(sparse) both match reference
    left = sparse_side.copy().merge(dense_side.copy())
    right = dense_side.copy().merge(sparse_side.copy())
    expected = ref_a.merge(ref_b).to_dense().buf
    np.testing.assert_array_equal(left.to_dense().buf, expected)
    np.testing.assert_array_equal(right.to_dense().buf, expected)


def test_adaptive_sim_size_below_dense():
    agg = FlatAggregator(1000, 4.0, policy=POLICY)
    agg.payload.scatter_add(np.array([5, 10]), np.array([1.0, 1.0]))
    agg.add_stats(1.0, 1.0)
    assert agg.representation == "sparse"
    assert sim_sizeof(agg) < agg.__sim_dense_size__()
    assert agg.__sim_dense_size__() == (1000 + 2) * 8.0 * 4.0
    agg.to_dense()
    assert sim_sizeof(agg) == agg.__sim_dense_size__()


def test_adaptive_split_carries_stats_sparsely():
    agg = FlatAggregator(10, policy=POLICY)
    agg.payload.scatter_add(np.array([0]), np.array([5.0]))
    agg.add_stats(2.5, 2.0)
    n = 3
    segs = [agg.split(i, n) for i in range(n)]
    rebuilt = concat_op(segs)
    assert rebuilt.buf[0] == 5.0
    assert rebuilt.loss_sum == 2.5
    assert rebuilt.weight_sum == 2.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.floats(0.05, 0.95))
def test_property_adaptive_equals_dense(seed, n_segments, threshold):
    size = 120
    policy = SparsePolicy(density_threshold=threshold)
    rng_d = np.random.default_rng(seed)
    rng_a = np.random.default_rng(seed)
    dense = FlatAggregator(size)
    adaptive = FlatAggregator(size, policy=policy)
    _scatter(rng_d, dense, size, 15)
    _scatter(rng_a, adaptive, size, 15)
    d_segs = [dense.split(i, n_segments) for i in range(n_segments)]
    a_segs = [adaptive.split(i, n_segments) for i in range(n_segments)]
    d_out = concat_op(d_segs)
    a_out = concat_op(a_segs)
    np.testing.assert_array_equal(d_out.buf, a_out.buf)


# ------------------------------------------------- sizeof memoization
def test_sparse_sizeof_is_cached_and_invalidated_on_mutation():
    agg = FlatAggregator(1000, policy=SparsePolicy(density_threshold=0.9))
    agg.payload.scatter_add(np.arange(4, dtype=np.int64), np.ones(4))
    first = sim_sizeof(agg)
    # Re-reading without mutation serves the memo (same version, same size).
    assert sim_sizeof(agg) == first
    assert agg._wire_cache is not None
    version_before = agg.payload.version
    agg.payload.scatter_add(np.arange(10, 20, dtype=np.int64), np.ones(10))
    assert agg.payload.version > version_before
    second = sim_sizeof(agg)
    assert second > first  # more nnz -> bigger sparse wire size


def test_sparse_sizeof_cache_survives_copy_semantics():
    agg = FlatAggregator(500, policy=SparsePolicy(density_threshold=0.9))
    agg.payload.scatter_add(np.arange(8, dtype=np.int64), np.ones(8))
    size = sim_sizeof(agg)
    clone = agg.copy()
    assert sim_sizeof(clone) == size
    # Mutating the clone must not return the parent's memoized size.
    clone.payload.scatter_add(np.arange(100, 140, dtype=np.int64),
                              np.ones(40))
    assert sim_sizeof(clone) > size
    assert sim_sizeof(agg) == size


def test_dense_sizeof_constant_is_cached():
    from repro.serde import sim_dense_sizeof

    agg = FlatAggregator(100, size_scale=3.0)
    expected = (100 + 2) * 8.0 * 3.0
    assert sim_dense_sizeof(agg) == pytest.approx(expected)
    assert sim_dense_sizeof(agg) == pytest.approx(expected)  # cached path


def test_segment_wire_cache_invalidated_by_merge():
    rng = np.random.default_rng(3)
    agg = FlatAggregator(400, policy=SparsePolicy(density_threshold=0.9))
    _scatter(rng, agg, 400, 6)
    seg = split_op(agg, 0, 4)
    if seg.buf is not None:
        pytest.skip("segment densified; wire cache applies to sparse form")
    before = sim_sizeof(seg)
    assert sim_sizeof(seg) == before
    other = split_op(agg, 0, 4)
    merged = seg.merge(other)
    assert sim_sizeof(merged) >= 0.0  # recomputed, not the stale memo
