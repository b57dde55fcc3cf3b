"""End-to-end acceptance tests for the observability layer.

The three contract points from the issue:

a. an event log of a seeded splitAggregate run reconstructs the same
   agg-compute / agg-reduce / driver decomposition as the live stopwatch,
b. the Chrome trace has one lane per busy executor core plus driver and
   NIC lanes (checked in ``test_chrome_trace``),
c. tracing on vs off yields identical virtual times.
"""

import json

import numpy as np
import pytest

from repro.bench import BreakdownRecorder
from repro.cluster import MB, ClusterConfig
from repro.obs import (
    attribute_critical_path,
    classify_stage,
    dump_events,
    load_events,
)
from repro.rdd import SparkerContext
from repro.serde import SizedPayload
from repro.obs.__main__ import main as obs_main
from tests.obs.helpers import run_lr


def test_event_stream_covers_engine_layers():
    _sc, recorder = run_lr(aggregation="split", nic=True)
    kinds = {e.kind for e in recorder.events}
    assert {"job_start", "job_end", "stage_submitted", "stage_completed",
            "task_start", "task_end", "block", "message_sent",
            "message_delivered", "ring_hop", "imm_merge", "phase",
            "nic_sample"} <= kinds


def test_decomposition_matches_live_stopwatch():
    """(a): event-derived phase totals == stopwatch totals (within 1%)."""
    sc, recorder = run_lr(aggregation="split")
    live = sc.stopwatch.as_dict()
    derived = attribute_critical_path(recorder.events).phases
    assert set(derived) == set(live)
    for key, total in live.items():
        assert derived[key] == pytest.approx(total, rel=0.01), key
    assert live.get("agg.compute", 0.0) > 0.0
    assert live.get("agg.reduce", 0.0) > 0.0
    assert live.get("ml.driver", 0.0) > 0.0


def test_decomposition_survives_log_round_trip(tmp_path):
    sc, recorder = run_lr(aggregation="split")
    path = tmp_path / "events.jsonl"
    dump_events(recorder.events, path)
    derived = attribute_critical_path(load_events(path)).phases
    for key, total in sc.stopwatch.as_dict().items():
        assert derived[key] == pytest.approx(total, rel=0.01), key


def test_tracing_does_not_change_virtual_time():
    """(c): attaching listeners + the NIC monitor is behavior-neutral."""
    traced, _ = run_lr(aggregation="split", trace=True, nic=True)
    bare, _ = run_lr(aggregation="split", trace=False)
    assert traced.now == bare.now
    assert traced.stopwatch.as_dict() == bare.stopwatch.as_dict()


def test_tracing_neutral_for_tree_imm_too():
    traced, _ = run_lr(aggregation="tree_imm", trace=True)
    bare, _ = run_lr(aggregation="tree_imm", trace=False)
    assert traced.now == bare.now


def test_event_log_is_deterministic_across_runs(tmp_path):
    """Two identically seeded runs write byte-identical event logs."""
    logs = []
    for i in range(2):
        _sc, recorder = run_lr(aggregation="split", nic=True)
        path = tmp_path / f"run{i}.jsonl"
        dump_events(recorder.events, path)
        logs.append(path.read_text())
    assert logs[0] == logs[1]


def stage_log_buckets(stages):
    """Figure 2's buckets summed straight from the scheduler's stage log,
    the paper's section 2.3 route; stages that never finished are left
    out."""
    totals = {}
    for stage in stages:
        if stage.duration is not None:
            bucket = classify_stage(stage.kind, stage.rdd_name)
            totals[bucket] = totals.get(bucket, 0.0) + stage.duration
    return totals


def run_aggregation(method):
    """One 16 MB aggregation on BIC x2: its stage log and stopwatch."""
    sc = SparkerContext(ClusterConfig.bic(num_nodes=2))
    n = sc.cluster.total_cores
    data = [SizedPayload(np.ones(32), sim_bytes=16 * MB) for _ in range(n)]
    rdd = sc.parallelize(data, n).cache()
    rdd.count()
    mark = len(sc.dag.stage_log)
    recorder = BreakdownRecorder(sc)
    zero = lambda: SizedPayload(np.zeros(32), sim_bytes=16 * MB)  # noqa: E731
    if method == "split":
        rdd.split_aggregate(zero, lambda a, x: a.merge_inplace(x),
                            lambda u, i, k: u.split(i, k),
                            lambda a, b: a.merge(b), SizedPayload.concat)
    else:
        rdd.tree_aggregate(zero, lambda a, x: a.merge_inplace(x),
                           lambda a, b: a.merge(b))
    return sc.dag.stage_log[mark:], recorder.finish()


def test_stage_decomposition_from_events_matches_stage_log():
    """The event route and the StageInfo route agree stage for stage."""
    sc, recorder = run_lr(aggregation="split")
    from_events = attribute_critical_path(recorder.events).stage_totals
    from_log = stage_log_buckets(sc.dag.stage_log)
    for bucket in ("agg_compute", "agg_reduce"):
        assert from_events.get(bucket, 0.0) == pytest.approx(
            from_log.get(bucket, 0.0))


def test_stage_log_buckets_a_tree_aggregation():
    """Level 0 computes, the levels above reduce, and little else runs."""
    stages, _breakdown = run_aggregation("tree")
    assert len(stages) >= 2
    totals = stage_log_buckets(stages)
    assert totals["agg_compute"] > 0
    assert totals["agg_reduce"] > 0
    assert totals.get("other", 0.0) < 0.1 * sum(totals.values())


def test_stage_log_compute_agrees_with_stopwatch():
    """The log-derived compute is the stopwatch's compute: for the tree
    path it is literally the first stage's duration."""
    stages, breakdown = run_aggregation("tree")
    totals = stage_log_buckets(stages)
    assert totals["agg_compute"] == pytest.approx(breakdown.agg_compute,
                                                  rel=1e-6)


def test_stage_log_buckets_a_split_aggregation():
    stages, _breakdown = run_aggregation("split")
    assert [s.kind for s in stages].count("reduced_result") == 1
    assert stage_log_buckets(stages)["agg_compute"] > 0


def test_stage_log_buckets_a_map_job_as_other():
    sc = SparkerContext(ClusterConfig.laptop())
    sc.parallelize(range(100), 8).map(lambda x: x + 1).count()
    totals = stage_log_buckets(sc.dag.stage_log)
    assert set(totals) == {"other"} and totals["other"] > 0


def test_cli_reports_decomposition(tmp_path, capsys):
    _sc, recorder = run_lr(aggregation="split", nic=True)
    events_path = tmp_path / "events.jsonl"
    dump_events(recorder.events, events_path)
    chrome_path = tmp_path / "trace.json"

    assert obs_main([str(events_path), "--chrome", str(chrome_path),
                     "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "Phase decomposition" in out
    assert "agg.compute" in out
    assert "agg.reduce" in out
    assert "Stage decomposition" in out
    assert "aggregation share" in out
    assert "histogram messages.size_bytes" in out
    assert "  status=ok: total=" in out
    assert "gauge     nic.utilization{direction=in,node=driver}: " in out
    # the chrome trace was written and is loadable JSON
    trace = json.loads(chrome_path.read_text())
    assert trace["traceEvents"]


def test_cli_errors_cleanly_on_missing_file(tmp_path, capsys):
    assert obs_main([str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot read" in capsys.readouterr().err
