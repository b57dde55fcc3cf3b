"""The one report of a recorded run: the exact-makespan-partition
invariant, collective blame, recovery epochs, the §2.3 decomposition,
critical tasks, sparse savings, faults, degenerate logs and the
CLI's rendering of it all."""

import dataclasses

import numpy as np
import pytest

from repro import AggregationSpec
from repro.cluster import ClusterConfig
from repro.data import concentrated_classification
from repro.faults import (
    AtRingHop,
    AtTime,
    ExecutorCrash,
    FaultController,
    FaultPlan,
    RecoveryPolicy,
)
from repro.ml import LogisticRegressionWithSGD
from repro.obs import (
    FaultInjected,
    ImmMerge,
    JobEnd,
    JobStart,
    PhaseSpan,
    RecordingListener,
    RecoveryAction,
    RingHop,
    SegmentRepresentation,
    StageCompleted,
    StageSubmitted,
    TaskEnd,
    attribute_critical_path,
    classify_stage,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.__main__ import render_report
from repro.rdd import SparkerContext
from repro.serde import SizedPayload

from .helpers import dump_events, run_lr
from .test_stream_digest import recorded_stream

NODE_COUNTS = (2, 4, 8)


def run_collective(algorithm, nodes, parallelism=4):
    """One traced split_aggregate through the named collective."""
    sc = SparkerContext(ClusterConfig.bic(num_nodes=nodes))
    rec = RecordingListener()
    sc.event_bus.subscribe(rec)
    data = [SizedPayload(np.full(32, float(i))) for i in range(24)]
    rdd = sc.parallelize(data, 2 * nodes).cache()
    rdd.count()
    rdd.split_aggregate(lambda: SizedPayload(np.zeros(32)),
                        lambda a, x: a.merge_inplace(x),
                        lambda u, i, n: u.split(i, n),
                        lambda a, b: a.merge(b),
                        SizedPayload.concat,
                        spec=AggregationSpec(collective=algorithm,
                                             parallelism=parallelism))
    return rec.events


def assert_exact_partition(report):
    assert report.jobs, "no finished jobs attributed"
    for job in report.jobs:
        total = sum(job.totals().values())
        assert total == pytest.approx(job.makespan, abs=1e-9)
        # segments are contiguous and cover [began, ended] with no gaps
        assert job.segments[0].began == job.began
        assert job.segments[-1].ended == job.ended
        for prev, nxt in zip(job.segments, job.segments[1:]):
            assert nxt.began == prev.ended


@pytest.mark.parametrize("nodes", NODE_COUNTS)
@pytest.mark.parametrize("aggregation", ["tree", "split"])
def test_lr_attribution_sums_to_makespan(aggregation, nodes):
    points_sc = SparkerContext(ClusterConfig.bic(num_nodes=nodes))
    rec = RecordingListener()
    points_sc.event_bus.subscribe(rec)
    from repro.data import sparse_classification
    points, _ = sparse_classification(120, 20, 5, seed=31)
    rdd = points_sc.parallelize(points, 2 * nodes).cache()
    rdd.count()
    LogisticRegressionWithSGD.train(
        rdd, 20, num_iterations=2, step_size=1.5,
        aggregation=aggregation, size_scale=1000.0)
    report = attribute_critical_path(rec.events)
    assert_exact_partition(report)


@pytest.mark.parametrize("nodes", NODE_COUNTS)
@pytest.mark.parametrize("algorithm", ["hd", "hierarchical"])
def test_collective_attribution_sums_to_makespan(algorithm, nodes):
    events = run_collective(algorithm, nodes)
    report = attribute_critical_path(events)
    assert_exact_partition(report)
    assert report.collectives
    coll = report.collectives[-1]
    assert coll.algorithm == algorithm
    assert coll.ranks > 0  # the decision record was joined
    assert coll.hop_count > 0
    assert coll.slowest_hop is not None
    assert coll.slowest_hop.seconds <= coll.seconds


def test_slowest_hop_belongs_to_its_collective():
    events = run_collective("ring", 2)
    report = attribute_critical_path(events)
    spans = {e.span_id for e in events if e.kind == "collective_chosen"}
    for coll in report.collectives:
        hop = coll.slowest_hop
        matching = [e for e in events if e.kind == "ring_hop"
                    and e.channel == hop.channel and e.hop == hop.hop
                    and e.executor_id == hop.executor_id]
        assert matching
        assert all(e.parent_span_id in spans for e in matching)


def test_detached_log_without_spans_still_attributes():
    events = run_collective("ring", 2)
    stripped = [dataclasses.replace(e, span_id=-1, parent_span_id=-1)
                for e in events]
    traced = attribute_critical_path(events)
    detached = attribute_critical_path(stripped)
    assert_exact_partition(detached)
    assert len(detached.jobs) == len(traced.jobs)
    assert len(detached.collectives) == len(traced.collectives)
    for a, b in zip(detached.jobs, traced.jobs):
        assert a.totals() == pytest.approx(b.totals())


def test_recovery_attribution():
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
    report = attribute_critical_path(rec.events)
    assert_exact_partition(report)
    assert report.recovery_epochs
    epoch = report.recovery_epochs[0]
    assert epoch.recovered
    assert epoch.actions >= 2
    assert epoch.seconds > 0
    recovered = [a for a in report.faults.actions if a.action == "recovered"]
    assert epoch.job_id == recovered[0].job_id >= 0
    assert any(job.recovery for job in report.jobs)
    assert report.totals().get("recovery", 0.0) > 0


def test_empty_log_produces_empty_report():
    report = attribute_critical_path([])
    assert report.jobs == []
    assert report.collectives == []
    assert report.recovery_epochs == []
    assert "no finished jobs" in render_report(report)


def test_empty_stream():
    report = attribute_critical_path([])
    assert report.total_time == 0.0
    assert report.stage_count == 0
    assert report.aggregation_share == 0.0


def test_unfinished_job_reported_not_raised():
    events = run_collective("ring", 2)
    cut = [e for e in events if e.kind != "job_end"]
    report = attribute_critical_path(cut)
    assert report.jobs == []
    assert report.unfinished
    rendered = render_report(report)
    assert "unfinished job" in rendered


def test_cli_renders_attribution_table():
    _sc, rec = run_lr("split", trace=True, num_iterations=1)
    report = attribute_critical_path(rec.events)
    rendered = render_report(report)
    assert "Critical path (per-job makespan attribution)" in rendered
    assert "Collectives (decision, measured window, blame)" in rendered
    for label in ("compute", "serde", "wire", "queueing"):
        assert label in rendered


def test_report_totals_cover_every_job():
    _sc, rec = run_lr("split", trace=True, num_iterations=2)
    report = attribute_critical_path(rec.events)
    assert sum(report.totals().values()) == pytest.approx(
        sum(job.makespan for job in report.jobs), abs=1e-9)


def test_pipelined_collective_attribution():
    """The overlapped path: chunk streams bind to the collective and the
    hop busy-union reports the wire/merge time hidden by overlap."""
    events = run_collective("pipelined_ring", 2)
    report = attribute_critical_path(events)
    assert_exact_partition(report)
    assert report.collectives
    coll = report.collectives[-1]
    assert coll.algorithm == "pipelined_ring"
    assert coll.chunk_streams > 0
    assert coll.hop_count > 0
    # multiple channels stream concurrently: some hop time is hidden
    assert coll.overlapped_hop_seconds > 0
    assert coll.slowest_hop is not None


def test_phased_ring_reports_no_chunk_streams():
    events = run_collective("ring", 2)
    report = attribute_critical_path(events)
    assert all(c.chunk_streams == 0 for c in report.collectives)


# ------------------------------------------------- the §2.3 decomposition
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
    assert attribute_critical_path(events).phases == {"a": 0.75, "b": 1.0}


# ---------------------------------------------------------- critical tasks
def _task(partition, began, ended, stage=1, executor=0, status="ok",
          attempt=0):
    return TaskEnd(time=ended, stage_id=stage, stage_attempt=0,
                   partition=partition, attempt=attempt,
                   executor_id=executor, host="n", began=began,
                   status=status)


def _one_stage_job(tasks):
    """Job 0 with stage 1 over ``tasks``, from 0 s to the last task end."""
    end = max(t.time for t in tasks)
    stage = dict(stage_id=1, attempt=0, stage_kind="result",
                 rdd_name="map@1", num_tasks=3, job_id=0)
    return [JobStart(time=0.0, job_id=0, job_kind="result",
                     rdd_name="map@1", num_partitions=3),
            StageSubmitted(time=0.0, **stage), *tasks,
            StageCompleted(time=end, began=0.0, **stage),
            JobEnd(time=end, job_id=0, job_kind="result", succeeded=True)]


def test_failed_tasks_excluded_from_skew():
    events = [_task(0, 0.0, 1.0), _task(1, 0.0, 1.0),
              _task(2, 0.0, 50.0, status="killed")]
    report = attribute_critical_path(events)
    assert report.task_failures == 1


def test_killed_attempt_is_never_blamed():
    """Tasks of 1 s and 1 s, a killed 5 s attempt and its 1 s re-run: the
    killed attempt finishes last, so it stays the stage's critical task."""
    report = attribute_critical_path(_one_stage_job([
        _task(0, 0.0, 1.0), _task(1, 0.0, 1.0),
        _task(2, 0.0, 5.0, executor=2, status="killed"),
        _task(2, 3.0, 4.0, executor=1, attempt=1)]))
    assert_exact_partition(report)
    (ct,) = report.jobs[0].critical_tasks
    assert (ct.partition, ct.attempt, ct.ended - ct.began) == (2, 0, 5.0)


# ------------------------------------------------------------------ sparse
def test_sparse_savings_accounting():
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
    sparse = attribute_critical_path(events).sparse
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
    events = [
        RingHop(time=1.0, rank=0, executor_id=1, channel="0", hop=0,
                send_bytes=800.0, recv_bytes=800.0, began=0.9,
                merge_time=0.01),
    ]
    sparse = attribute_critical_path(events).sparse
    assert not sparse.observed
    assert sparse.bytes_saved == 0.0
    assert sparse.savings_ratio == 0.0


# ------------------------------------------------------------------ faults
def test_fault_report_latency_and_recovery_cost():
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
    report = attribute_critical_path(events)
    faults = report.faults
    assert faults.observed
    assert len(faults.injected) == 2
    assert len(faults.actions) == 2
    # Only detectable faults (crash/drop) get a latency pairing; the
    # straggler is injected but never "answered".
    assert len(faults.detection_latency) == 1
    fault, latency = faults.detection_latency[0]
    assert fault.fault == "executor_crash"
    assert latency == pytest.approx(0.2)
    (epoch,) = report.recovery_epochs
    assert (epoch.job_id, epoch.recovered, epoch.actions) == (7, True, 2)
    assert epoch.seconds == pytest.approx(0.3)


def test_fault_report_empty_when_unfaulted():
    report = attribute_critical_path([])
    assert not report.faults.observed
    assert report.faults.detection_latency == []
    assert report.recovery_epochs == []


def test_render_report_includes_fault_section():
    events = [
        FaultInjected(time=0.5, fault="executor_crash",
                      target="executor 2", trigger="ring_hop",
                      executor_id=2, detail="channel 0 hop 1"),
        RecoveryAction(time=0.6, action="ring_rebuild", job_id=3,
                       attempt=1),
        RecoveryAction(time=0.9, action="recovered", job_id=3,
                       seconds=0.35),
    ]
    text = render_report(attribute_critical_path(events))
    assert "Injected faults" in text
    assert "executor_crash" in text
    assert "Recovery actions" in text
    assert "recovery virtual-time cost: job 3: 350.00ms" in text
    assert text.count("350.00ms") == 1


# ---------------------------------------------------------- pinned render
def faulted_ring_sparse_events():
    """One context: a density-adaptive LR on the P=8 ring whose first ring
    loses an executor at hop 1 and recovers."""
    points, _ = concentrated_classification(
        n_samples=120, n_features=2_000, nnz_per_sample=8,
        support_size=60, seed=17)
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=3))
    rec = RecordingListener()
    sc.event_bus.subscribe(rec)
    victim = sc.executors[1].executor_id
    FaultController(
        sc, FaultPlan((ExecutorCrash(victim, AtRingHop(1)),), seed=7),
        RecoveryPolicy(recv_timeout=0.25, max_ring_attempts=3)).arm()
    rdd = sc.parallelize(points, 6).cache()
    rdd.count()
    LogisticRegressionWithSGD.train(
        rdd, 2_000, num_iterations=2, aggregation="split",
        size_scale=1000.0,
        spec=AggregationSpec(collective="ring", parallelism=8, sparse=True))
    return rec.events


#: Every line carrying a number that ``render_report`` prints on
#: ``faulted_ring_sparse_events()``, whitespace collapsed. Each
#: collective is one row: its measured seconds, once printed again as
#: 0.0964s / 0.0345s, are the 96.38ms / 34.53ms below. The recovery cost
#: 65.14ms, printed three times before, is the cost line.
PINNED_LINES = (
    "trace span: 442.57ms virtual (7 jobs, 7 stages, 35 tasks)",
    "ml.broadcast 164.97ms 40.0%",
    "agg.reduce 130.91ms 31.7%",
    "agg.compute 60.63ms 14.7%",
    "ml.driver 55.88ms 13.6%",
    "Aggregation / compute 30.65ms 43.2%",
    "Aggregation / reduce 30.19ms 42.6%",
    "Other stages 10.07ms 14.2%",
    "aggregation share of stage time: 85.8%",
    "messages: 64 (12.05 MB), ring hops: 48, imm merges: 14",
    "sparse aggregation: 48 sparse / 0 dense ring hops, 14 sparse imm "
    "merges; wire 9.09 MB vs dense 149.48 MB (saved 140.39 MB, 93.9%)",
    "0 result 30.19ms 0.0% 0.2% 0.0% 0.0% 33.1% 66.7% 0.0% 0.0%",
    "1 reduced_result 30.02ms 0.1% 0.0% 0.0% 0.0% 33.3% 66.6% 0.0% 0.0%",
    "2 result 30.18ms 0.0% 0.2% 0.0% 0.0% 33.1% 66.7% 0.0% 0.0%",
    "3 reduced_result 30.03ms 0.1% 0.0% 0.0% 0.0% 33.3% 66.6% 0.0% 0.0% "
    "yes",
    "4 result 30.18ms 0.0% 0.2% 0.0% 0.0% 33.1% 66.7% 0.0% 0.0% yes",
    "5 reduced_result 30.60ms 2.0% 0.0% 0.0% 0.0% 32.7% 65.4% 0.0% 0.0%",
    "6 result 30.18ms 0.0% 0.2% 0.0% 0.0% 33.1% 66.7% 0.0% 0.0%",
    "1 ring P=8 6x3h 0.9MB 96.38ms 28 ring hop 3 "
    "rank 1 (781.62us) ring rank 0: 186.26us merge + 3.08ms wire",
    "2 ring P=8 5x3h 0.9MB 34.53ms 20 "
    "ring hop 3 rank 1 (781.62us) ring rank 1: 111.76us merge + "
    "2.13ms wire",
    "0.1739s executor_crash ring_hop executor 1 0.0000s channel ring hop 1",
    "0.1739s ring_abort ring 1 - 1 executor 1 died mid-collective",
    "0.1739s ring_rebuild ring 1 - 1",
    "0.1739s partial_recompute ring 1 1 1 partitions [1] via lineage",
    "0.2391s recovered ring 1 - 1",
    "recovery epoch 0.1739s -> 0.2391s (recovered, 4 actions)",
    "recovery virtual-time cost: job 1: 65.14ms",
)


def test_render_report_prints_every_number_once():
    report = attribute_critical_path(faulted_ring_sparse_events())
    assert report.sparse.sparse_hops > 0
    assert [(c.algorithm, c.parallelism)
            for c in report.collectives] == [("ring", 8)] * 2
    assert report.recovery_epochs
    text = " ".join(render_report(report).split())
    for line in PINNED_LINES:
        assert line in text, line
    for number in ("65.14ms", "96.38ms", "34.53ms"):
        assert text.count(number) == 1, number
    assert "0.0964s" not in text


# ------------------------------------------------------ the CLI boundary
@pytest.mark.parametrize("flag, value, hint", [
    ("--window", "0", "use a window width > 0 virtual seconds"),
    ("--window", "nan", "use a window width > 0 virtual seconds"),
])
def test_cli_rejects_bad_numbers(tmp_path, capsys, flag, value, hint):
    path = tmp_path / "events.jsonl"
    dump_events([], path)
    with pytest.raises(SystemExit) as exit_:
        obs_main([str(path), flag, value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and hint in err and repr(value) in err


def test_log_mixing_two_contexts_is_noted_not_attributed(tmp_path, capsys):
    events = recorded_stream()
    report = attribute_critical_path(events)
    assert [n for n in report.notes if "job ids [1, 2]" in n]
    assert {job.job_id for job in report.jobs} == {0}
    assert_exact_partition(report)
    path = tmp_path / "mixed.jsonl"
    dump_events(events, path)
    assert obs_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "note: job ids [1, 2]" in out
    shares = [float(s[:-1]) for s in out.split() if s.endswith("%")]
    assert shares and max(shares) <= 100.0
