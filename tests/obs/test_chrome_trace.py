"""Tests for the Chrome trace_event / Perfetto exporter."""

import json

import pytest

from repro.obs import (
    FaultInjected,
    NicSample,
    PhaseSpan,
    RecoveryAction,
    TaskEnd,
    TaskMetrics,
    attribute_critical_path,
    chrome_trace,
    write_chrome_trace,
)
from repro.obs.chrome_trace import (
    DRIVER_PID,
    EXECUTOR_PID_BASE,
    NIC_PID,
    _pack_lanes,
)
from tests.obs.helpers import run_lr
from tests.obs.test_events import SAMPLES


def test_pack_lanes_minimal_and_deterministic():
    spans = [(0.0, 1.0, "a"), (0.5, 1.5, "b"), (1.0, 2.0, "c"),
             (1.6, 2.0, "d")]
    packed = dict((item, lane) for lane, item in _pack_lanes(spans))
    # "a" and "b" overlap -> two lanes; "c" reuses a's lane, "d" reuses b's.
    assert packed == {"a": 0, "b": 1, "c": 0, "d": 1}
    assert _pack_lanes(spans) == _pack_lanes(list(reversed(spans)))


def test_trace_structure_from_samples():
    trace = chrome_trace(SAMPLES)
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    pids = {e["pid"] for e in events}
    assert {DRIVER_PID, NIC_PID, EXECUTOR_PID_BASE + 5} <= pids
    spans = [e for e in events if e["ph"] == "X"]
    assert all(e["dur"] >= 0 for e in spans)
    # one job span, one phase span, one task span at least
    cats = {e["cat"] for e in spans}
    assert {"job", "phase", "task", "ring", "imm"} <= cats
    counters = [e for e in events if e["ph"] == "C"]
    assert counters and counters[0]["args"].keys() == {"in", "out"}


def test_core_lanes_bounded_by_executor_cores(tmp_path):
    sc, recorder = run_lr(trace=True, nic=True)
    trace = chrome_trace(recorder.events)
    events = trace["traceEvents"]

    cores = sc.cluster.config.executor_cores
    task_spans = [e for e in events if e["ph"] == "X" and e["cat"] == "task"]
    assert task_spans
    by_executor = {}
    for e in task_spans:
        by_executor.setdefault(e["pid"], set()).add(e["tid"])
    for pid, tids in by_executor.items():
        # exactly the lanes 0..k-1 for some k <= executor_cores
        assert tids == set(range(len(tids)))
        assert len(tids) <= cores

    # driver and NIC processes are present with named lanes
    names = {(e["pid"], e.get("tid"), e["args"]["name"])
             for e in events if e.get("ph") == "M"
             and e["name"] in ("process_name", "thread_name")}
    assert (DRIVER_PID, None, "driver") in names
    assert (NIC_PID, None, "NIC") in names
    assert any(pid == NIC_PID and name == "driver-host (driver)"
               for pid, _tid, name in names)

    # no two task spans on one lane overlap (the lanes are real cores)
    for pid, tids in by_executor.items():
        for tid in tids:
            lane = sorted((e["ts"], e["ts"] + e["dur"]) for e in task_spans
                          if e["pid"] == pid and e["tid"] == tid)
            for (_s1, e1), (s2, _e2) in zip(lane, lane[1:]):
                assert s2 >= e1 - 1e-6


def test_write_chrome_trace_is_valid_json(tmp_path):
    target = tmp_path / "trace.json"
    count = write_chrome_trace(SAMPLES, target)
    loaded = json.loads(target.read_text())
    assert len(loaded["traceEvents"]) == count
    assert loaded["otherData"]["time_unit"] == "virtual"


def test_empty_stream_still_valid():
    trace = chrome_trace([])
    assert isinstance(trace["traceEvents"], list)


def test_phase_lanes_on_driver():
    spans = [PhaseSpan(time=1.0, key="agg.compute", seconds=1.0),
             PhaseSpan(time=1.5, key="ml.driver", seconds=0.2)]
    events = chrome_trace(spans)["traceEvents"]
    phases = [e for e in events if e.get("cat") == "phase"]
    assert {e["pid"] for e in phases} == {DRIVER_PID}
    assert [e["name"] for e in phases] == ["agg.compute", "ml.driver"]


def test_nic_counter_track_per_node():
    samples = [NicSample(time=t, node_id=n, hostname=f"node{n}",
                         is_driver=False, in_rate=0.0, out_rate=0.0,
                         in_utilization=0.5, out_utilization=0.5)
               for t in (0.0, 0.1) for n in (0, 1)]
    events = chrome_trace(samples)["traceEvents"]
    counters = [e for e in events if e["ph"] == "C"]
    assert len(counters) == 4
    assert {e["tid"] for e in counters} == {0, 1}


def test_task_span_args_carry_metrics():
    task = TaskEnd(time=2.0, stage_id=1, stage_attempt=0, partition=0,
                   attempt=0, executor_id=0, host="n0", began=1.0,
                   status="ok",
                   metrics=TaskMetrics(compute_time=0.9, fetch_wait=0.05,
                                       result_bytes=64.0))
    events = chrome_trace([task])["traceEvents"]
    span = next(e for e in events if e.get("cat") == "task")
    assert span["args"]["compute"] == 0.9
    assert span["args"]["result_bytes"] == 64.0
    assert span["name"] == "s1.p0"


def test_flow_arrows_chain_critical_path():
    _sc, rec = run_lr("split", trace=True, num_iterations=1)
    trace = chrome_trace(rec.events)
    flows = [e for e in trace["traceEvents"] if e["ph"] in ("s", "t", "f")]
    assert flows, "traced run must emit critical-path flow arrows"
    assert all(e["cat"] == "critical_path" for e in flows)
    by_id = {}
    for e in flows:
        by_id.setdefault(e["id"], []).append(e)
    for flow_id, chain in by_id.items():
        phases = [e["ph"] for e in chain]
        assert phases.count("s") == 1, flow_id
        assert phases.count("f") == 1, flow_id
        finish = next(e for e in chain if e["ph"] == "f")
        assert finish.get("bp") == "e"
        # arrows advance monotonically along virtual time
        stamps = [e["ts"] for e in chain]
        assert stamps == sorted(stamps)


def test_recovery_lane_on_fault_run():
    import numpy as np

    from repro import AggregationSpec
    from repro.cluster import ClusterConfig
    from repro.faults import (
        AtTime,
        ExecutorCrash,
        FaultController,
        FaultPlan,
    )
    from repro.obs import RecordingListener
    from repro.obs.chrome_trace import RECOVERY_TID
    from repro.rdd import SparkerContext
    from repro.serde import SizedPayload

    sc = SparkerContext(ClusterConfig.laptop(num_nodes=4))
    rec = RecordingListener()
    sc.event_bus.subscribe(rec)
    eid = sc.cluster.executors[5].executor_id
    FaultController(sc, FaultPlan(faults=(ExecutorCrash(
        eid, AtTime(0.05)),))).arm()
    data = [SizedPayload(np.full(16, float(i))) for i in range(24)]
    rdd = sc.parallelize(data, 8)
    rdd.split_aggregate(lambda: SizedPayload(np.zeros(16)),
                        lambda a, x: a.merge_inplace(x),
                        lambda u, i, n: u.split(i, n),
                        lambda a, b: a.merge(b),
                        SizedPayload.concat,
                        spec=AggregationSpec(parallelism=4))
    trace = chrome_trace(rec.events)
    lanes = [e for e in trace["traceEvents"]
             if e.get("pid") == DRIVER_PID and e.get("tid") == RECOVERY_TID
             and e["ph"] == "X"]
    assert lanes, "recovery epochs must appear on the driver RECOVERY lane"
    assert all(e["dur"] > 0 for e in lanes)
    # the lane draws the report's epochs, not a second derivation
    epochs = attribute_critical_path(rec.events).recovery_epochs
    assert [(e["ts"], e["dur"], e["args"]["job_id"]) for e in lanes] == [
        (ep.began * 1e6, (ep.ended - ep.began) * 1e6, ep.job_id)
        for ep in epochs]


def test_recovery_lane_draws_every_epoch():
    """An epoch opens at its first action, which can be earlier than its
    ``recovered`` action's own cost says; one that never recovers is
    drawn too."""
    from repro.obs.chrome_trace import RECOVERY_TID

    events = [RecoveryAction(time=1.0, action="ring_abort", job_id=4),
              RecoveryAction(time=2.0, action="recovered", job_id=4,
                             seconds=0.5),
              RecoveryAction(time=3.0, action="ring_abort", job_id=5),
              RecoveryAction(time=3.5, action="ring_rebuild", job_id=5)]
    lanes = [e for e in chrome_trace(events)["traceEvents"]
             if e.get("tid") == RECOVERY_TID and e["ph"] == "X"]
    assert [(e["name"], e["ts"], e["dur"]) for e in lanes] == [
        ("recovery (job 4)", 1.0e6, 1.0e6),
        ("recovery (unrecovered)", 3.0e6, 0.5e6)]


def test_chrome_trace_marks_faults():
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
