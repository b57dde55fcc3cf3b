"""Span allocation and causal parentage (DESIGN.md §12 span model)."""

from dataclasses import fields

import numpy as np

from repro import AggregationSpec
from repro.cluster import ClusterConfig
from repro.faults import AtTime, ExecutorCrash, FaultController, FaultPlan
from repro.obs import NO_SPAN, RecordingListener, Tracer
from repro.rdd import SparkerContext
from repro.serde import SizedPayload

from .helpers import run_lr


def by_kind(events, kind):
    return [e for e in events if e.kind == kind]


def test_tracer_inactive_allocates_nothing():
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    tracer = sc.event_bus.tracer
    assert tracer.new_span() == NO_SPAN
    assert tracer.new_span() == NO_SPAN
    sc.event_bus.subscribe(lambda e: None)
    first = tracer.new_span()
    second = tracer.new_span()
    assert first > 0 and second == first + 1


def test_tracer_parent_stack():
    bus = type("B", (), {"active": True})()
    tracer = Tracer(bus)
    assert tracer.current_parent == NO_SPAN
    tracer.push_parent(7)
    tracer.push_parent(9)
    assert tracer.current_parent == 9
    assert tracer.pop_parent() == 9
    assert tracer.current_parent == 7
    assert tracer.pop_parent() == 7
    assert tracer.pop_parent() == NO_SPAN


def test_untraced_events_serialize_without_span_fields():
    _sc, rec = run_lr("split", trace=True, num_iterations=1)
    traced = rec.events[0].to_record()
    assert "span_id" in traced
    untraced = type(rec.events[0])(**{
        f.name: getattr(rec.events[0], f.name)
        for f in fields(rec.events[0])
        if f.name not in ("span_id", "parent_span_id")})
    record = untraced.to_record()
    assert "span_id" not in record and "parent_span_id" not in record


def test_job_stage_task_parentage():
    _sc, rec = run_lr("split", trace=True, num_iterations=2)
    events = rec.events
    job_spans = {e.job_id: e.span_id for e in by_kind(events, "job_start")}
    stage_spans = {}
    for e in by_kind(events, "stage_submitted"):
        assert e.span_id > 0
        assert e.parent_span_id == job_spans[e.job_id]
        stage_spans[(e.stage_id, e.attempt)] = e.span_id
    for e in by_kind(events, "stage_completed"):
        assert e.span_id == stage_spans[(e.stage_id, e.attempt)]
    task_spans = set()
    for e in by_kind(events, "task_start") + by_kind(events, "task_end"):
        assert e.parent_span_id == stage_spans[(e.stage_id, e.stage_attempt)]
        task_spans.add(e.span_id)
    for e in by_kind(events, "job_end"):
        assert e.span_id == job_spans[e.job_id]
    # IMM merges happen inside a task: their parents are task spans.
    merges = by_kind(events, "imm_merge")
    assert merges
    assert all(m.parent_span_id in task_spans for m in merges)


def test_collective_span_parents_hops_and_messages():
    _sc, rec = run_lr("split", trace=True, num_iterations=1)
    events = rec.events
    chosen = by_kind(events, "collective_chosen")
    assert chosen
    collective_spans = {e.collective_id: e.span_id for e in chosen}
    assert all(span > 0 for span in collective_spans.values())
    for e in by_kind(events, "collective_completed"):
        assert e.span_id == collective_spans[e.collective_id]
    hops = by_kind(events, "ring_hop")
    assert hops
    assert all(h.parent_span_id in collective_spans.values() for h in hops)
    sends = by_kind(events, "message_sent")
    assert sends
    assert all(s.parent_span_id in collective_spans.values() for s in sends)


def test_fault_span_parents_recovery_actions():
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
    faults = by_kind(rec.events, "fault_injected")
    actions = by_kind(rec.events, "recovery_action")
    assert faults and actions
    assert all(f.span_id > 0 for f in faults)
    recovered = [a for a in actions if a.action == "recovered"]
    assert recovered
    epoch = recovered[0].span_id
    assert epoch > 0
    # every mid-epoch action parents to the recovery-epoch span
    for a in actions:
        if a.action != "recovered":
            assert a.parent_span_id == epoch


def test_span_ids_deterministic_across_runs():
    _sc, rec1 = run_lr("split", trace=True, seed=31, num_iterations=2)
    _sc, rec2 = run_lr("split", trace=True, seed=31, num_iterations=2)
    ids1 = [(e.kind, e.span_id, e.parent_span_id) for e in rec1.events]
    ids2 = [(e.kind, e.span_id, e.parent_span_id) for e in rec2.events]
    assert ids1 == ids2
