"""Tests for event-log analysis: decomposition, stragglers, saturation."""

import pytest

from repro.obs import (
    NicSample,
    PhaseSpan,
    TaskEnd,
    analyze_events,
    classify_stage,
    phase_decomposition,
)
from repro.obs.analysis import _median


def test_classify_stage_buckets():
    assert classify_stage("result", "partialAggregate") == "agg_compute"
    assert classify_stage("result", "treeAgg:level0") == "agg_compute"
    assert classify_stage("reduced_result", "whatever") == "agg_compute"
    assert classify_stage("result", "treeAgg:level1") == "agg_reduce"
    assert classify_stage("result", "treeAggValues") == "agg_reduce"
    assert classify_stage("shuffle_map", "SpawnRDD") == "agg_reduce"
    assert classify_stage("result", "map@7") == "other"


def test_phase_decomposition_sums_by_key():
    events = [PhaseSpan(time=1.0, key="a", seconds=0.5),
              PhaseSpan(time=2.0, key="a", seconds=0.25),
              PhaseSpan(time=2.0, key="b", seconds=1.0)]
    assert phase_decomposition(events) == {"a": 0.75, "b": 1.0}


def test_median():
    assert _median([]) == 0.0
    assert _median([3.0]) == 3.0
    assert _median([1.0, 3.0]) == 2.0
    assert _median([1.0, 2.0, 10.0]) == 2.0


def _task(partition, began, ended, stage=1, executor=0, status="ok"):
    return TaskEnd(time=ended, stage_id=stage, stage_attempt=0,
                   partition=partition, attempt=0, executor_id=executor,
                   host="n", began=began, status=status)


def test_straggler_detection():
    events = [_task(0, 0.0, 1.0), _task(1, 0.0, 1.0), _task(2, 0.0, 1.1),
              _task(3, 0.0, 5.0, executor=3)]
    analysis = analyze_events(events)
    assert len(analysis.stragglers) == 1
    straggler = analysis.stragglers[0]
    assert straggler.partition == 3
    assert straggler.executor_id == 3
    assert straggler.stage_median == pytest.approx(1.05)
    assert straggler.slowdown == pytest.approx(5.0 / 1.05)


def test_straggler_needs_peers_and_factor():
    # A lone task is never a straggler; 1.5x the median is under 2x.
    events = [_task(0, 0.0, 9.0, stage=7),
              _task(0, 0.0, 1.0, stage=8), _task(1, 0.0, 1.5, stage=8)]
    assert analyze_events(events).stragglers == []


def test_failed_tasks_excluded_from_skew():
    events = [_task(0, 0.0, 1.0), _task(1, 0.0, 1.0),
              _task(2, 0.0, 50.0, status="killed")]
    analysis = analyze_events(events)
    assert analysis.task_failures == 1
    assert analysis.stragglers == []


def _sample(t, util, node=-1, driver=True, direction="out"):
    return NicSample(time=t, node_id=node, hostname="driver-host",
                     is_driver=driver, in_rate=0.0, out_rate=0.0,
                     in_utilization=util if direction == "in" else 0.0,
                     out_utilization=util if direction == "out" else 0.0)


def test_saturation_windows():
    events = [_sample(0.0, 0.2), _sample(0.1, 0.95), _sample(0.2, 0.99),
              _sample(0.3, 0.5), _sample(0.4, 0.91), _sample(0.5, 0.92)]
    analysis = analyze_events(events)
    assert len(analysis.saturation) == 2
    first, second = analysis.saturation
    assert (first.start, first.end) == (0.1, 0.2)
    assert first.direction == "out"
    assert first.peak_utilization == pytest.approx(0.99)
    assert (second.start, second.end) == (0.4, 0.5)


def test_saturation_ignores_worker_nodes_by_default():
    events = [_sample(0.0, 0.99, node=1, driver=False)]
    assert analyze_events(events).saturation == []
    scanned = analyze_events(events, driver_only_saturation=False)
    assert len(scanned.saturation) == 1


def test_empty_stream():
    analysis = analyze_events([])
    assert analysis.total_time == 0.0
    assert analysis.stage_count == 0
    assert analysis.aggregation_share == 0.0


def test_sparse_savings_accounting():
    from repro.obs import SegmentRepresentation, analyze_events
    from repro.obs.events import ImmMerge, RingHop

    events = [
        RingHop(time=1.0, rank=0, executor_id=1, channel="0", hop=0,
                send_bytes=160.0, recv_bytes=160.0, began=0.9,
                merge_time=0.01, send_repr="sparse", recv_repr="sparse",
                send_dense_bytes=800.0),
        RingHop(time=1.1, rank=1, executor_id=2, channel="0", hop=1,
                send_bytes=800.0, recv_bytes=160.0, began=1.0,
                merge_time=0.01, send_repr="dense", recv_repr="sparse",
                send_dense_bytes=800.0),
        SegmentRepresentation(time=1.05, site="ring", executor_id=2,
                              rank=1, channel="0", hop=1,
                              from_repr="sparse", to_repr="dense",
                              nnz=55, length=100, density=0.55,
                              wire_bytes=880.0, dense_bytes=800.0),
        ImmMerge(time=1.2, executor_id=1, job_id=1, stage_id=2,
                 merge_index=0, nbytes=160.0, lock_wait=0.0,
                 merge_time=0.02, representation="sparse", density=0.1),
        ImmMerge(time=1.3, executor_id=1, job_id=1, stage_id=2,
                 merge_index=1, nbytes=800.0, lock_wait=0.0,
                 merge_time=0.02),
    ]
    sparse = analyze_events(events).sparse
    assert sparse.observed
    assert sparse.sparse_hops == 1
    assert sparse.dense_hops == 1
    assert sparse.wire_send_bytes == 960.0
    assert sparse.dense_send_bytes == 1600.0
    assert sparse.bytes_saved == 640.0
    assert sparse.savings_ratio == pytest.approx(0.4)
    assert len(sparse.switches) == 1
    assert sparse.sparse_imm_merges == 1


def test_sparse_savings_silent_when_dense_only():
    from repro.obs import analyze_events
    from repro.obs.events import RingHop

    events = [
        RingHop(time=1.0, rank=0, executor_id=1, channel="0", hop=0,
                send_bytes=800.0, recv_bytes=800.0, began=0.9,
                merge_time=0.01),
    ]
    sparse = analyze_events(events).sparse
    assert not sparse.observed
    assert sparse.bytes_saved == 0.0
    assert sparse.savings_ratio == 0.0


def test_fault_report_latency_and_recovery_cost():
    from repro.obs import FaultInjected, RecoveryAction

    events = [
        FaultInjected(time=1.0, fault="executor_crash",
                      target="executor 3", trigger="at_time",
                      executor_id=3),
        RecoveryAction(time=1.2, action="ring_abort", job_id=7, attempt=1),
        RecoveryAction(time=1.5, action="recovered", job_id=7,
                       seconds=0.3),
        FaultInjected(time=2.0, fault="straggler", target="executor 1",
                      trigger="window", executor_id=1),
    ]
    report = analyze_events(events).faults
    assert report.observed
    assert len(report.injected) == 2
    assert len(report.actions) == 2
    # Only detectable faults (crash/drop) get a latency pairing; the
    # straggler is injected but never "answered".
    assert len(report.detection_latency) == 1
    fault, latency = report.detection_latency[0]
    assert fault.fault == "executor_crash"
    assert latency == pytest.approx(0.2)
    assert report.recovery_by_job == {7: pytest.approx(0.3)}


def test_fault_report_empty_when_unfaulted():
    report = analyze_events([]).faults
    assert not report.observed
    assert report.detection_latency == []
    assert report.recovery_by_job == {}


def test_render_analysis_includes_fault_section():
    from repro.obs import FaultInjected, RecoveryAction
    from repro.obs.__main__ import render_analysis

    events = [
        FaultInjected(time=0.5, fault="executor_crash",
                      target="executor 2", trigger="ring_hop",
                      executor_id=2, detail="channel 0 hop 1"),
        RecoveryAction(time=0.6, action="ring_rebuild", job_id=3,
                       attempt=1),
        RecoveryAction(time=0.9, action="recovered", job_id=3,
                       seconds=0.4),
    ]
    text = render_analysis(analyze_events(events))
    assert "Injected faults" in text
    assert "executor_crash" in text
    assert "Recovery actions" in text
    assert "recovery virtual-time cost" in text
    assert "job 3" in text


def test_chrome_trace_marks_faults():
    from repro.obs import FaultInjected, RecoveryAction
    from repro.obs.chrome_trace import chrome_trace

    events = [
        FaultInjected(time=0.5, fault="message_drop", target="rank 0 -> 1",
                      trigger="link", src=0, dst=1, channel="ring/0"),
        RecoveryAction(time=0.7, action="tree_fallback", site="tree",
                       job_id=2),
    ]
    trace = chrome_trace(events)["traceEvents"]
    instants = [e for e in trace if e.get("ph") == "i"]
    assert {e["name"] for e in instants} == \
        {"fault:message_drop", "recovery:tree_fallback"}
    drop = next(e for e in instants if e["name"] == "fault:message_drop")
    assert drop["ts"] == pytest.approx(0.5e6)
