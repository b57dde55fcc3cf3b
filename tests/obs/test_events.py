"""Serialization round-trips for every event type, and what an event is:
a frozen slots record, the same from either constructor."""

import copy
import pickle
import sys
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    EVENT_TYPES,
    BlockEvent,
    ChunkStream,
    CollectiveChosen,
    CollectiveCompleted,
    CollectiveDowngraded,
    ColumnarFold,
    FaultInjected,
    ImmMerge,
    JobEnd,
    JobStart,
    MessageDelivered,
    MessageSent,
    PhaseSpan,
    PoolSample,
    RecoveryAction,
    ResidualLost,
    ResidualNorm,
    RingHop,
    ServiceJobFinished,
    ServiceJobSubmitted,
    SpeculativeAttempt,
    SegmentRepresentation,
    StageCompleted,
    StageSubmitted,
    TaskEnd,
    TaskMetrics,
    TaskStart,
    channel_str,
    event_from_record,
)

SAMPLES = [
    JobStart(time=0.1, job_id=1, job_kind="result", rdd_name="r",
             num_partitions=8),
    JobEnd(time=0.2, job_id=1, job_kind="result", succeeded=True),
    StageSubmitted(time=0.1, stage_id=3, attempt=0, stage_kind="result",
                   rdd_name="treeAgg:level0", num_tasks=8, job_id=1),
    StageCompleted(time=0.4, stage_id=3, attempt=0, stage_kind="result",
                   rdd_name="treeAgg:level0", num_tasks=8, job_id=1,
                   began=0.1),
    TaskStart(time=0.15, stage_id=3, stage_attempt=0, partition=2,
              attempt=0, executor_id=5, host="node1"),
    TaskEnd(time=0.35, stage_id=3, stage_attempt=0, partition=2, attempt=0,
            executor_id=5, host="node1", began=0.15, status="ok",
            metrics=TaskMetrics(compute_time=0.2, result_bytes=128.0,
                                locality="NODE_LOCAL")),
    BlockEvent(time=0.2, executor_id=5, op="put", rdd_id=7, partition=2,
               nbytes=1024.0),
    ColumnarFold(time=0.2, executor_id=5, partition=2, rows=125, nnz=1900,
                 built=True),
    MessageSent(time=0.3, transport="SC", src=0, dst=1, channel="ring/0",
                hop=2, nbytes=4096.0),
    MessageDelivered(time=0.31, transport="SC", src=0, dst=1,
                     channel="ring/0", hop=2, nbytes=4096.0,
                     queue_wait=0.004, flight_time=0.006),
    RingHop(time=0.5, rank=1, executor_id=5, channel="0", hop=3,
            send_bytes=2048.0, recv_bytes=2048.0, began=0.45,
            merge_time=0.01),
    ImmMerge(time=0.6, executor_id=5, job_id=1, stage_id=3, merge_index=2,
             nbytes=512.0, lock_wait=0.001, merge_time=0.002,
             representation="sparse", density=0.01),
    SegmentRepresentation(time=0.65, site="ring", executor_id=5, rank=1,
                          channel="0", hop=3, from_repr="sparse",
                          to_repr="dense", nnz=700, length=1000,
                          density=0.7, wire_bytes=11200.0,
                          dense_bytes=8000.0),
    PhaseSpan(time=0.7, key="agg.compute", seconds=0.25),
    FaultInjected(time=0.85, fault="executor_crash", target="executor 3",
                  trigger="ring_hop", executor_id=3,
                  detail="channel 0 hop 2"),
    RecoveryAction(time=0.9, action="ring_rebuild", site="ring", job_id=1,
                   executor_id=3, attempt=1, ranks=3, seconds=0.05,
                   detail="survivors re-ranked"),
    CollectiveChosen(time=0.92, collective_id=1, algorithm="hd",
                     parallelism=2, ranks=6, hosts=2,
                     value_bytes=8e6, segment_bytes=8e6 / 12),
    CollectiveCompleted(time=0.95, collective_id=1, algorithm="hd",
                        parallelism=2, began=0.92, seconds=0.03),
    ChunkStream(time=0.96, rank=1, executor_id=5, channel="0", num_chunks=4,
                chunk_bytes=4194304.0, value_bytes=1.6e7, began=0.9),
    ResidualNorm(time=0.97, executor_id=5, job_id=1, k=100,
                 payload_size=10000, sent_norm=3.5, residual_norm=0.4),
    CollectiveDowngraded(time=0.98, requested="pipelined_ring",
                         actual="ring", reason="streamed_abort", job_id=1,
                         detail="executor 3 lost mid-stream"),
    ResidualLost(time=0.99, executor_id=3, num_residuals=2,
                 residual_norm=0.7, reason="fault injection"),
    SpeculativeAttempt(time=1.0, action="launched", stage_id=3, partition=2,
                       executor_id=5, backup_executor_id=1, attempt=100,
                       threshold=0.4, elapsed=0.9),
    ServiceJobSubmitted(time=1.2, service_job_id=4, tenant="alice",
                        pool="prod", workload="LR-C", queued=True),
    ServiceJobFinished(time=1.3, service_job_id=4, tenant="alice",
                       pool="prod", workload="LR-C", status="succeeded",
                       submitted=1.2, latency=0.1),
    PoolSample(time=1.4, pool="prod", weight=3.0, running=5,
               task_seconds=12.5, queued_tickets=2),
]


@pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
def test_record_round_trip(event):
    record = event.to_record()
    assert record["event"] == event.kind
    assert event_from_record(record) == event


def test_every_kind_has_a_sample():
    assert {e.kind for e in SAMPLES} == set(EVENT_TYPES)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown event kind"):
        event_from_record({"event": "warp_drive", "time": 1.0})


def test_task_end_duration_and_phase_began():
    task = SAMPLES[5]
    assert task.duration == pytest.approx(0.2)
    phase = next(e for e in SAMPLES if e.kind == "phase")
    assert phase.began == pytest.approx(0.45)


def test_events_are_immutable():
    with pytest.raises(AttributeError):
        SAMPLES[0].job_id = 9


def test_channel_str_normalizes():
    assert channel_str("ring") == "ring"
    assert channel_str(3) == "3"
    assert channel_str(("ring", 2)) == "ring/2"
    assert channel_str((("a", 1), 2)) == "a/1/2"


def _values(event):
    return {f.name: getattr(event, f.name) for f in fields(event)}


@pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
def test_fast_constructor_equivalent(event):
    """``fast()`` must be indistinguishable from the dataclass
    constructor: same equality, hash, and serialized record."""
    rebuilt = type(event).fast(**_values(event))
    assert rebuilt == event
    assert hash(rebuilt) == hash(event)
    assert rebuilt.to_record() == event.to_record()


def test_fast_applies_defaults_and_factories():
    fast = TaskEnd.fast(time=0.35, stage_id=3, stage_attempt=0,
                        partition=2, attempt=0, executor_id=5,
                        host="node1", began=0.15, status="ok")
    assert fast.span_id == -1 and fast.parent_span_id == -1
    assert isinstance(fast.metrics, TaskMetrics)
    # the default_factory must produce a fresh TaskMetrics per call
    other = TaskEnd.fast(time=0.4, stage_id=3, stage_attempt=0,
                         partition=3, attempt=0, executor_id=5,
                         host="node1", began=0.2, status="ok")
    assert fast.metrics is not other.metrics


def test_fast_events_stay_frozen():
    fast = PhaseSpan.fast(time=0.7, key="agg.compute", seconds=0.25)
    with pytest.raises(FrozenInstanceError):
        fast.time = 1.0


def test_fast_rejects_an_unknown_field_at_the_call():
    """It used to be written into the log as ``"bogus": 2``."""
    hop = next(e for e in SAMPLES if isinstance(e, RingHop))
    with pytest.raises(TypeError, match="bogus"):
        RingHop.fast(**_values(hop), bogus=2)


def test_fast_rejects_a_missing_field_at_the_call():
    """It used to surface as an ``AttributeError`` in whichever analyzer
    read the event first, far from the emit site."""
    with pytest.raises(TypeError, match="rank"):
        RingHop.fast(time=1.0)


# ------------------------------------------- what the representation promises
_INTS = st.integers(-2 ** 40, 2 ** 40)
_FLOATS = st.floats(allow_nan=False)  # nan != nan would fail every ==
_BY_ANNOTATION = {
    "int": _INTS, "float": _FLOATS, "bool": st.booleans(),
    "str": st.text(max_size=8), "Optional[int]": st.none() | _INTS,
}
_BY_ANNOTATION["TaskMetrics"] = st.builds(TaskMetrics, **{
    f.name: _BY_ANNOTATION[f.type] for f in fields(TaskMetrics)})


#: 3.10's ``dataclass(slots=True)`` declares a subclass's inherited fields
#: as slots a second time (3.11 stopped): TraceEvent's three, 8 bytes each
_RESLOTTED = 24 if sys.version_info < (3, 11) else 0

#: -1 is "untraced" and is not written; a tracer allocates from 1 up
_SPANS = st.integers(-1, 2 ** 40)


def _field_values(cls):
    """Every required field, and any subset of the defaulted ones."""
    required, defaulted = {}, {}
    for f in fields(cls):
        plain = f.default is MISSING and f.default_factory is MISSING
        (required if plain else defaulted)[f.name] = (
            _SPANS if f.name.endswith("span_id") else _BY_ANNOTATION[f.type])
    return st.fixed_dictionaries(required, optional=defaulted)


@pytest.mark.parametrize("cls", list(EVENT_TYPES.values()),
                         ids=list(EVENT_TYPES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_both_constructors_build_the_same_frozen_slots_record(cls, data):
    kw = data.draw(_field_values(cls))
    built, fast = cls(**kw), cls.fast(**kw)
    assert fast == built and hash(fast) == hash(built)
    assert repr(fast) == repr(built)
    assert list(fast.to_record().items()) == list(built.to_record().items())
    other = data.draw(_FLOATS)
    for event in (built, fast):
        assert type(event) is cls
        assert event_from_record(event.to_record()) == event
        assert copy.copy(event) == event
        assert pickle.loads(pickle.dumps(event)) == event
        assert replace(event, time=other).time == other
        with pytest.raises(FrozenInstanceError):
            event.time = other
        with pytest.raises(FrozenInstanceError):
            del event.time
        assert not hasattr(event, "__dict__")
        assert sys.getsizeof(event) <= 48 + 8 * len(fields(cls)) + _RESLOTTED
