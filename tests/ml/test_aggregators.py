"""Tests for the Figure 7-style aggregator classes."""

import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregationSpec, ClusterConfig, SparkerSession
from repro.data.registry import dataset
from repro.ml import aggregators
from repro.ml.aggregators import (
    AggregatorSegment,
    FlatAggregator,
    concat_op,
    reduce_op,
    split_op,
)
from repro.serde import sim_sizeof
from repro.sim.calendar import BucketCalendar


def test_zero_initialization():
    agg = FlatAggregator(5)
    np.testing.assert_allclose(agg.buf, 0.0)
    assert agg.loss_sum == 0.0
    assert agg.weight_sum == 0.0


def test_payload_view_is_writable():
    agg = FlatAggregator(4)
    agg.payload[2] = 7.0
    assert agg.buf[2] == 7.0


def test_add_stats():
    agg = FlatAggregator(2)
    agg.add_stats(0.5, 1.0)
    agg.add_stats(1.5, 2.0)
    assert agg.loss_sum == pytest.approx(2.0)
    assert agg.weight_sum == pytest.approx(3.0)


def test_merge_accumulates_everything():
    a, b = FlatAggregator(3), FlatAggregator(3)
    a.payload[:] = [1, 2, 3]
    a.add_stats(1.0)
    b.payload[:] = [10, 20, 30]
    b.add_stats(2.0)
    out = a.merge(b)
    assert out is a
    np.testing.assert_allclose(a.payload, [11, 22, 33])
    assert a.loss_sum == pytest.approx(3.0)
    assert a.weight_sum == pytest.approx(2.0)


def test_merge_size_mismatch():
    with pytest.raises(ValueError):
        FlatAggregator(3).merge(FlatAggregator(4))


def test_sim_size_uses_scale():
    agg = FlatAggregator(100, size_scale=50.0)
    assert sim_sizeof(agg) == pytest.approx(102 * 8 * 50.0)


def test_size_scale_validation():
    with pytest.raises(ValueError):
        FlatAggregator(10, size_scale=0.0)
    with pytest.raises(ValueError):
        FlatAggregator(-1)


def test_split_concat_round_trip():
    agg = FlatAggregator(14, size_scale=10.0)
    agg.payload[:] = np.arange(14)
    agg.add_stats(3.0, 7.0)
    segments = [split_op(agg, i, 5) for i in range(5)]
    assert all(isinstance(s, AggregatorSegment) for s in segments)
    back = concat_op(segments)
    np.testing.assert_allclose(back.buf, agg.buf)
    assert back.loss_sum == pytest.approx(3.0)
    assert back.weight_sum == pytest.approx(7.0)
    assert sim_sizeof(back) == pytest.approx(sim_sizeof(agg))


def test_segment_sim_sizes_sum_to_whole():
    agg = FlatAggregator(30, size_scale=4.0)
    segments = [split_op(agg, i, 7) for i in range(7)]
    assert sum(s.sim_bytes for s in segments) == pytest.approx(
        sim_sizeof(agg))


def test_reduce_op_elementwise():
    a = AggregatorSegment(np.array([1.0, 2.0]), 16.0)
    b = AggregatorSegment(np.array([3.0, 4.0]), 16.0)
    out = reduce_op(a, b)
    np.testing.assert_allclose(out.buf, [4.0, 6.0])
    assert out.sim_bytes == 16.0


def test_reduce_op_shape_mismatch():
    with pytest.raises(ValueError):
        reduce_op(AggregatorSegment(np.zeros(2), 1.0),
                  AggregatorSegment(np.zeros(3), 1.0))


def test_concat_empty_rejected():
    with pytest.raises(ValueError):
        concat_op([])


def test_segment_negative_size_rejected():
    with pytest.raises(ValueError):
        AggregatorSegment(np.zeros(2), -1.0)


def test_copy_independent():
    agg = FlatAggregator(3)
    agg.payload[:] = 1.0
    clone = agg.copy()
    clone.payload[:] = 9.0
    np.testing.assert_allclose(agg.payload, 1.0)


def test_buffer_length_validation():
    with pytest.raises(ValueError):
        FlatAggregator(3, buf=np.zeros(4))  # needs 3 + 2 slots


@settings(max_examples=25, deadline=None)
@given(payload=st.integers(0, 100), segments=st.integers(1, 16),
       scale=st.floats(0.1, 1e6), seed=st.integers(0, 99))
def test_split_concat_identity_property(payload, segments, scale, seed):
    rng = np.random.default_rng(seed)
    agg = FlatAggregator(payload, size_scale=scale)
    agg.buf[:] = rng.standard_normal(payload + 2)
    back = concat_op([split_op(agg, i, segments) for i in range(segments)])
    np.testing.assert_allclose(back.buf, agg.buf)
    assert sim_sizeof(back) == pytest.approx(sim_sizeof(agg), rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 10), payload=st.integers(1, 40),
       segments=st.integers(1, 8), seed=st.integers(0, 99))
def test_segmentwise_merge_equals_whole_merge(n, payload, segments, seed):
    """The algebraic heart of split aggregation: merging segment-wise then
    concatenating equals merging whole aggregators."""
    rng = np.random.default_rng(seed)
    aggs = []
    for _ in range(n):
        agg = FlatAggregator(payload)
        agg.buf[:] = rng.standard_normal(payload + 2)
        aggs.append(agg)

    whole = aggs[0].copy()
    for other in aggs[1:]:
        whole.merge(other.copy())

    merged_segments = []
    for i in range(segments):
        seg = split_op(aggs[0], i, segments)
        for other in aggs[1:]:
            seg = reduce_op(seg, split_op(other, i, segments))
        merged_segments.append(seg)
    via_segments = concat_op(merged_segments)
    np.testing.assert_allclose(via_segments.buf, whole.buf, rtol=1e-12)


# ------------------------------------------------ what a cell holds live
class _DenseBuffers:
    """``numpy`` as ``repro.ml.aggregators`` sees it, counting the live
    arrays of one length it makes: aggregator layouts (``zeros`` /
    ``empty``) and concatenated results (``concatenate``). A view keeps
    its base, and so the count, alive."""

    def __init__(self, length):
        self.length = length
        self.live = {"zeros": 0, "empty": 0, "concatenate": 0}
        self.most_layouts = self.most = 0

    def sample(self):
        layouts = self.live["zeros"] + self.live["empty"]
        self.most_layouts = max(self.most_layouts, layouts)
        self.most = max(self.most, layouts + self.live["concatenate"])

    def _died(self, name):
        self.live[name] -= 1

    def __getattr__(self, name):
        make = getattr(np, name)
        if name not in self.live:
            return make

        def counted(*args, **kwargs):
            out = make(*args, **kwargs)
            if out.size == self.length:
                self.live[name] += 1
                weakref.finalize(out, self._died, name)
            return out
        return counted


def test_a_cell_holds_one_dense_aggregator_per_executor():
    """IMM's point (paper §4.3): one merged aggregator per executor, not
    one per task. Sampled at every kernel step of a BIC x8 split SVM-K12
    iteration (192 task slots on 48 executors), the payload-length
    aggregator buffers alive are the executors' merged objects, and the
    driver's concatenated result arrives while they are still held; each
    task's partial keeps only its partition's support. A dense partial
    per task made it 192."""
    spec = dataset("kdd12")
    spec.generate()
    counter = _DenseBuffers(spec.surrogate_features + 2)
    pop = BucketCalendar.pop

    def sampled(calendar):
        counter.sample()
        return pop(calendar)

    config = ClusterConfig.bic(8)
    with mock.patch.object(aggregators, "np", counter), \
            mock.patch.object(BucketCalendar, "pop", sampled):
        SparkerSession(config).run("SVM-K12", aggregation="split",
                                   iterations=1, spec=AggregationSpec())
    assert config.num_executors == 48
    assert counter.most_layouts == config.num_executors
    assert counter.most <= config.num_executors + 1
