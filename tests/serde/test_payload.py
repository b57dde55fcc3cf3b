"""Tests for SizedPayload and segment arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serde import SizedPayload, segment_range, sim_sizeof


def test_default_sim_size_is_physical():
    p = SizedPayload(np.zeros(100))
    assert p.sim_bytes == 800
    assert p.scale == 1.0


def test_declared_sim_size():
    p = SizedPayload(np.zeros(100), sim_bytes=8_000_000)
    assert sim_sizeof(p) == 8_000_000
    assert p.scale == pytest.approx(10_000)


def test_merge_sums_elementwise():
    a = SizedPayload(np.arange(4, dtype=float))
    b = SizedPayload(np.ones(4))
    merged = a.merge(b)
    np.testing.assert_allclose(merged.data, [1, 2, 3, 4])
    # Merging equal-sized payloads must not inflate the simulated size.
    assert merged.sim_bytes == a.sim_bytes


def test_merge_inplace_mutates_left():
    a = SizedPayload(np.arange(4, dtype=float))
    b = SizedPayload(np.ones(4))
    out = a.merge_inplace(b)
    assert out is a
    np.testing.assert_allclose(a.data, [1, 2, 3, 4])


def test_merge_length_mismatch_rejected():
    with pytest.raises(ValueError):
        SizedPayload(np.zeros(3)).merge(SizedPayload(np.zeros(4)))


def test_split_partitions_exactly():
    p = SizedPayload(np.arange(10, dtype=float), sim_bytes=1000)
    segments = [p.split(i, 3) for i in range(3)]
    np.testing.assert_allclose(
        np.concatenate([s.data for s in segments]), p.data)
    assert sum(s.sim_bytes for s in segments) == pytest.approx(1000)
    # 10 elements over 3 segments: sizes 4, 3, 3.
    assert [len(s) for s in segments] == [4, 3, 3]


def test_split_out_of_range():
    p = SizedPayload(np.zeros(4))
    with pytest.raises(IndexError):
        p.split(3, 3)
    with pytest.raises(IndexError):
        p.split(-1, 3)


def test_concat_round_trip():
    p = SizedPayload(np.arange(17, dtype=float), sim_bytes=1700)
    back = SizedPayload.concat([p.split(i, 5) for i in range(5)])
    np.testing.assert_allclose(back.data, p.data)
    assert back.sim_bytes == pytest.approx(1700)


def test_concat_empty_rejected():
    with pytest.raises(ValueError):
        SizedPayload.concat([])


def test_non_1d_rejected():
    with pytest.raises(ValueError):
        SizedPayload(np.zeros((2, 2)))


def test_negative_sim_size_rejected():
    with pytest.raises(ValueError):
        SizedPayload(np.zeros(2), sim_bytes=-1)


def test_copy_is_independent():
    p = SizedPayload(np.zeros(4))
    q = p.copy()
    q.data[0] = 7
    assert p.data[0] == 0


def _blocks(n, k):
    return [segment_range(n, k, i) for i in range(k)]


def test_segment_bounds_basic():
    assert _blocks(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert _blocks(9, 3) == [(0, 3), (3, 6), (6, 9)]
    assert _blocks(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]


def test_segment_bounds_validation():
    with pytest.raises(ValueError):
        segment_range(10, 0, 0)
    with pytest.raises(IndexError):
        segment_range(10, 3, 3)
    with pytest.raises(IndexError):
        segment_range(10, 3, -1)


@given(st.integers(min_value=0, max_value=500),
       st.integers(min_value=1, max_value=64))
def test_segment_bounds_cover_everything(n, k):
    blocks = _blocks(n, k)
    # the blocks tile [0, n) in order ...
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    # ... and the first n % k are the one-longer ones (MPI block layout)
    sizes = [hi - lo for lo, hi in blocks]
    base, extra = divmod(n, k)
    assert sizes == [base + 1] * extra + [base] * (k - extra)


@given(st.integers(min_value=1, max_value=200),
       st.integers(min_value=1, max_value=16))
def test_split_concat_identity_property(n, k):
    rng = np.random.default_rng(n * 1000 + k)
    p = SizedPayload(rng.standard_normal(n), sim_bytes=float(n * 80))
    segments = [p.split(i, k) for i in range(k)]
    back = SizedPayload.concat(segments)
    np.testing.assert_allclose(back.data, p.data)
    assert back.sim_bytes == pytest.approx(p.sim_bytes)
