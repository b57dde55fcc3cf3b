"""Executor death reports the top-k error-feedback mass it destroys."""

import numpy as np
import pytest

from repro import AggregationSpec
from repro.cluster import ClusterConfig
from repro.obs import ResidualLost, attribute_critical_path
from repro.rdd import SparkerContext
from repro.serde import SizedPayload


def test_kill_emits_residual_lost(sc):
    events = []
    sc.event_bus.subscribe(events.append)
    executor = sc.executor_by_id(0)
    executor.residuals[(1, 0)] = np.array([3.0, 4.0])
    executor.residuals[(1, 1)] = np.array([0.0, 0.0])
    executor.kill(reason="chaos test")
    losses = [e for e in events if isinstance(e, ResidualLost)]
    assert len(losses) == 1
    (loss,) = losses
    assert loss.executor_id == 0
    assert loss.num_residuals == 2
    assert loss.residual_norm == pytest.approx(5.0)
    assert loss.reason == "chaos test"
    assert not executor.residuals  # cleared after reporting


def test_kill_without_residuals_is_silent(sc):
    events = []
    sc.event_bus.subscribe(events.append)
    sc.executor_by_id(0).kill()
    assert [e for e in events if isinstance(e, ResidualLost)] == []


def test_untraced_kill_emits_nothing(sc):
    executor = sc.executor_by_id(0)
    executor.residuals[(1, 0)] = np.array([1.0])
    executor.kill()  # no subscriber: bus inactive, no event construction
    assert not executor.residuals


def test_real_topk_residuals_reported_and_analyzed():
    """After an error-feedback top-k aggregation, killing a holder emits
    the accumulated residual mass and the fault report totals it."""
    from repro.ml.aggregators import (
        FlatAggregator,
        concat_op,
        reduce_op,
        split_op,
    )

    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    events = []
    sc.event_bus.subscribe(events.append)
    rng = np.random.default_rng(7)
    data = [rng.normal(size=256) for _ in range(8)]

    def seq(agg, vec):
        np.add(agg.payload, vec, out=agg.payload)
        agg.add_stats(0.0, 1.0)
        return agg

    sc.parallelize(data, 4).split_aggregate(
        lambda: FlatAggregator(256), seq, split_op, reduce_op, concat_op,
        merge_op=lambda a, b: a.merge(b),
        spec=AggregationSpec(parallelism=2, compression="topk",
                             topk_k=16, error_feedback=True))
    victim = next(e for e in sc.executors if e.residuals)
    victim.kill()
    losses = [e for e in events if isinstance(e, ResidualLost)]
    assert len(losses) == 1
    assert losses[0].residual_norm > 0.0
    report = attribute_critical_path(events).faults
    assert report.residual_losses == losses
    assert report.residual_norm_lost == pytest.approx(
        losses[0].residual_norm)
    assert report.observed
