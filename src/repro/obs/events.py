"""The typed event vocabulary of the observability layer.

Every event is a frozen slots dataclass — a fixed-layout record with no
per-instance dict — with a ``time`` field (virtual seconds) and a
class-level ``kind`` discriminator. Emit sites build it with its
keyword-only constructor ``fast``; ``to_record`` serializes it to one flat
JSON object and :func:`event_from_record` reads that back
(:func:`_generate` writes ``fast`` and ``to_record`` out per class).
Span-like events (tasks, ring hops, phases) carry their *start* in a
``began`` field and stamp ``time`` at the end, so a JSON-lines log is
naturally ordered by completion time.

The vocabulary mirrors Spark's listener events where an analogue exists
(``SparkListenerJobStart``/``TaskEnd``/...) and extends below task
granularity where the paper's analysis needs it: per-message transport
events, per-hop ring spans, and in-memory-merge events.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, ClassVar, Dict, Optional, Type

__all__ = [
    "TraceEvent",
    "JobStart",
    "JobEnd",
    "StageSubmitted",
    "StageCompleted",
    "TaskStart",
    "TaskEnd",
    "TaskMetrics",
    "BlockEvent",
    "ColumnarFold",
    "MessageSent",
    "MessageDelivered",
    "RingHop",
    "ChunkStream",
    "ResidualNorm",
    "ImmMerge",
    "SegmentRepresentation",
    "PhaseSpan",
    "NicSample",
    "FaultInjected",
    "RecoveryAction",
    "CollectiveDowngraded",
    "ResidualLost",
    "SpeculativeAttempt",
    "ExecutorHealth",
    "CollectiveCostEstimate",
    "CollectiveChosen",
    "CollectiveCompleted",
    "ServiceJobSubmitted",
    "ServiceJobFinished",
    "PoolSample",
    "EVENT_TYPES",
    "event_from_record",
    "channel_str",
]


def channel_str(channel: Any) -> str:
    """Normalize an arbitrary channel/tag value to a stable string key."""
    if isinstance(channel, str):
        return channel
    if isinstance(channel, (tuple, list)):
        return "/".join(channel_str(part) for part in channel)
    return str(channel)


def _generate(cls: type) -> None:
    """Write ``cls.fast`` and ``cls.to_record`` out, as ``dataclasses``
    writes ``__init__``: one function per class, every field by name.

    A frozen slots instance cannot be filled cheaply through its own
    ``__setattr__`` (``object.__setattr__`` per field: 2 us for a ring
    hop's 14), so ``fast`` allocates a mutable *twin* — same bases, same
    slots, hence the same layout — fills it with plain ``e.name = name``
    stores and hands it over with one ``__class__`` store. The twin must
    override ``__setattr__`` *and* ``__delattr__``: with only the first,
    CPython keeps the generic attribute slot and a store costs six times
    as much; its ``__init__`` is ``object``'s, so ``_twin()`` allocates and
    nothing else. The signature is keyword-only and carries the defaults, so
    an unknown or a missing required field is a ``TypeError`` at the
    emit site, as with ``__init__``.

    ``to_record`` is one dict display of the fields plus the ``event``
    discriminator, keys in sorted order (the log's encoder sorts them,
    and a sorted list is its cheapest case: 6.0 -> 5.4 us a ring hop);
    unset span fields are dropped, and a field whose default factory is
    itself a record class (``TaskEnd.metrics``) is written through that
    class's ``to_record``.
    """
    twin = type(cls.__name__, cls.__bases__, {
        "__slots__": cls.__slots__, "__init__": object.__init__,
        "__setattr__": object.__setattr__,
        "__delattr__": object.__delattr__})
    scope: Dict[str, Any] = {"_cls": cls, "_twin": twin, "_MISSING": MISSING}
    params, stores, items = [], [], []
    for f in fields(cls):
        name, value = f.name, f"self.{f.name}"
        if f.default_factory is not MISSING:
            scope[f"_make_{name}"] = f.default_factory
            params.append(f"{name}=_MISSING")
            stores.append(f"e.{name} = _make_{name}() "
                          f"if {name} is _MISSING else {name}")
            if hasattr(f.default_factory, "to_record"):
                value += ".to_record()"
        else:
            stores.append(f"e.{name} = {name}")
            if f.default is MISSING:
                params.append(name)
            else:
                scope[f"_default_{name}"] = f.default
                params.append(f"{name}=_default_{name}")
        items.append(f"{name!r}: {value}")
    if hasattr(cls, "kind"):
        items.append(f"'event': {cls.kind!r}")
    items.sort()
    # named after the class: a profile keys a function by (file, line,
    # name), and every class's source starts at line 1
    fast, to_record = f"{cls.__name__}_fast", f"{cls.__name__}_to_record"
    lines = [f"def {fast}(*, {', '.join(params)}):", " e = _twin()",
             *(f" {store}" for store in stores),
             " e.__class__ = _cls", " return e",
             f"def {to_record}(self):",
             f" record = {{{', '.join(items)}}}"]
    if "span_id" in cls.__dataclass_fields__:
        lines += [" if self.span_id < 0:", "  del record['span_id']",
                  "  if self.parent_span_id < 0:",
                  "   del record['parent_span_id']"]
    lines.append(" return record")
    # this file's name, so tracebacks and profilers book the generated
    # code under obs rather than under "<string>"
    exec(compile("\n".join(lines), __file__, "exec"), scope)
    cls.fast = staticmethod(scope[fast])
    cls.to_record = scope[to_record]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base class: one observed occurrence at one virtual time.

    ``span_id`` / ``parent_span_id`` are the causal-tracing hooks: every
    event emitted by a traced run carries the span it belongs to and the
    span that caused it (job -> stage -> task -> collective -> hop/merge).
    Both default to -1 ("untraced") and are omitted from serialized
    records in that case, so logs written without a tracer are unchanged.
    """

    kind: ClassVar[str] = "event"

    time: float
    span_id: int = field(default=-1, kw_only=True)
    parent_span_id: int = field(default=-1, kw_only=True)

    #: keyword-only constructor for the emit sites, and the flat JSON-ready
    #: dict with an ``event`` discriminator; _generate writes both out
    #: for a class the first time either is used
    fast: ClassVar[Callable[..., "TraceEvent"]]
    to_record: ClassVar[Callable[["TraceEvent"], Dict[str, Any]]]

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "TraceEvent":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in record.items() if k in known})


# ------------------------------------------------------------------- jobs
@dataclass(frozen=True, slots=True)
class JobStart(TraceEvent):
    """A driver job entered the scheduler."""

    kind: ClassVar[str] = "job_start"

    job_id: int
    job_kind: str  # "result" | "reduced_result"
    rdd_name: str
    num_partitions: int


@dataclass(frozen=True, slots=True)
class JobEnd(TraceEvent):
    """A driver job finished (successfully or not)."""

    kind: ClassVar[str] = "job_end"

    job_id: int
    job_kind: str
    succeeded: bool


# ------------------------------------------------------------------ stages
@dataclass(frozen=True, slots=True)
class StageSubmitted(TraceEvent):
    kind: ClassVar[str] = "stage_submitted"

    stage_id: int
    attempt: int
    stage_kind: str  # "shuffle_map" | "result" | "reduced_result"
    rdd_name: str
    num_tasks: int
    job_id: int


@dataclass(frozen=True, slots=True)
class StageCompleted(TraceEvent):
    kind: ClassVar[str] = "stage_completed"

    stage_id: int
    attempt: int
    stage_kind: str
    rdd_name: str
    num_tasks: int
    job_id: int
    began: float


# ------------------------------------------------------------------- tasks
@dataclass(frozen=True, slots=True)
class TaskMetrics:
    """Per-attempt timings, Spark's ``TaskMetrics`` at this engine's grain.

    All times are virtual seconds. ``slot_wait`` is the queueing delay for
    an executor core; ``fetch_wait`` is the end-to-end shuffle-fetch window
    (network included) of which ``deserialize_time`` is the CPU share.
    """

    slot_wait: float = 0.0
    fetch_wait: float = 0.0
    deserialize_time: float = 0.0
    compute_time: float = 0.0
    serialize_time: float = 0.0
    #: wall of the task's output step minus ``serialize_time``: shipping a
    #: result/map-status to the driver, or the IMM lock+merge window.
    #: A task's ``duration`` (which starts after the slot was acquired, so
    #: excludes ``slot_wait``) decomposes exactly into launch overhead +
    #: ``fetch_wait`` + ``compute_time`` + ``serialize_time`` + this.
    output_wait: float = 0.0
    result_bytes: float = 0.0
    locality: str = "ANY"


@dataclass(frozen=True, slots=True)
class TaskStart(TraceEvent):
    """A task attempt acquired a core and began running."""

    kind: ClassVar[str] = "task_start"

    stage_id: int
    stage_attempt: int
    partition: int
    attempt: int
    executor_id: int
    host: str


@dataclass(frozen=True, slots=True)
class TaskEnd(TraceEvent):
    """A task attempt finished; carries its metrics and outcome."""

    kind: ClassVar[str] = "task_end"

    stage_id: int
    stage_attempt: int
    partition: int
    attempt: int
    executor_id: int
    host: str
    began: float
    status: str  # "ok" | "failed" | "killed" | "fetch_failed"
    metrics: TaskMetrics = field(default_factory=TaskMetrics)

    @property
    def duration(self) -> float:
        return self.time - self.began

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "TaskEnd":
        record = dict(record)
        metrics = record.get("metrics")
        if isinstance(metrics, dict):
            record["metrics"] = TaskMetrics(**metrics)
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in record.items() if k in known})


# ------------------------------------------------------------------ blocks
@dataclass(frozen=True, slots=True)
class BlockEvent(TraceEvent):
    """A block-store operation on one executor."""

    kind: ClassVar[str] = "block"

    executor_id: int
    op: str  # "put" | "fetch" | "evict"
    rdd_id: int
    partition: int
    nbytes: float


@dataclass(frozen=True, slots=True)
class ColumnarFold(TraceEvent):
    """A gradient seqOp folded one partition through its flat columns.

    ``built`` says the columns had to be laid out for this fold; a dataset
    whose every fold builds (an un-cached RDD, a mini-batch sample) is
    paying the layout once per iteration instead of once.
    """

    kind: ClassVar[str] = "columnar_fold"

    executor_id: int
    partition: int
    rows: int
    nnz: int
    built: bool


# --------------------------------------------------------------- messaging
@dataclass(frozen=True, slots=True)
class MessageSent(TraceEvent):
    """A fabric message left its sender (before transfer), ``nbytes`` in
    all over ``lanes`` parallel streams (the PDR's sockets per hop)."""

    kind: ClassVar[str] = "message_sent"

    transport: str
    src: int
    dst: int
    channel: str
    hop: Optional[int]
    nbytes: float
    lanes: int = 1


@dataclass(frozen=True, slots=True)
class MessageDelivered(TraceEvent):
    """A fabric message was consumed by ``recv`` at its destination.

    ``queue_wait`` is the mailbox dwell (arrival → recv); ``flight_time``
    the wire time (send → arrival). ``time - queue_wait - flight_time``
    recovers the send instant.
    """

    kind: ClassVar[str] = "message_delivered"

    transport: str
    src: int
    dst: int
    channel: str
    hop: Optional[int]
    nbytes: float
    queue_wait: float
    flight_time: float
    lanes: int = 1


@dataclass(frozen=True, slots=True)
class RingHop(TraceEvent):
    """One iteration of one rank's ring (paper Figure 11), all ``lanes``
    parallel channels of it: byte counts are summed over the lanes.

    The span runs from the hop's send-off to the point where both the
    incoming segments are merged and the outgoing send has fully left;
    ``merge_time`` is the CPU share of that window (the widest lane's).
    """

    kind: ClassVar[str] = "ring_hop"

    rank: int
    executor_id: int
    channel: str
    hop: int
    send_bytes: float
    recv_bytes: float
    began: float
    merge_time: float
    #: wire representation of the outgoing / incoming segments ("sparse":
    #: the SparCML-style (index, value) format; "mixed": the lanes differ)
    send_repr: str = "dense"
    recv_repr: str = "dense"
    #: dense-equivalent bytes of the outgoing segments (0 when unrecorded);
    #: ``send_dense_bytes - send_bytes`` is the hop's bytes-on-wire saving
    send_dense_bytes: float = 0.0
    lanes: int = 1


@dataclass(frozen=True, slots=True)
class ChunkStream(TraceEvent):
    """One rank's chunked segment stream through a pipelined ring.

    The span runs from the moment the rank's aggregator became available
    (its last seqOp partial merged — ``began``) to the completion of every
    chunk column; ``num_chunks`` columns of at most ``chunk_bytes``
    simulated bytes a lane ran as concurrent sub-rings over ``lanes``
    channels, so wire and merge time in the window overlap, not add.
    """

    kind: ClassVar[str] = "chunk_stream"

    rank: int
    executor_id: int
    channel: str
    num_chunks: int
    chunk_bytes: float
    value_bytes: float
    began: float
    lanes: int = 1


@dataclass(frozen=True, slots=True)
class ResidualNorm(TraceEvent):
    """Top-k compression gauge for one executor's outgoing aggregator.

    Emitted by the opt-in approximate tier each time a holder is
    sparsified: ``k`` of ``payload_size`` coordinates were sent,
    ``sent_norm`` / ``residual_norm`` are the L2 norms of the transmitted
    part and of the error-feedback remainder kept on the executor
    (0 when ``error_feedback`` is off — the remainder is dropped).
    """

    kind: ClassVar[str] = "residual_norm"

    executor_id: int
    job_id: int
    k: int
    payload_size: int
    sent_norm: float
    residual_norm: float
    error_feedback: bool = True


# --------------------------------------------------------------------- imm
@dataclass(frozen=True, slots=True)
class ImmMerge(TraceEvent):
    """One in-memory merge into an executor's shared object (paper §3.2)."""

    kind: ClassVar[str] = "imm_merge"

    executor_id: int
    job_id: int
    stage_id: int
    merge_index: int
    nbytes: float
    lock_wait: float
    merge_time: float
    #: representation of the merged value after this merge
    representation: str = "dense"
    #: nnz/size density of the merged value (1.0 once dense)
    density: float = 1.0


@dataclass(frozen=True, slots=True)
class SegmentRepresentation(TraceEvent):
    """A reduction operand switched representation (sparse -> dense).

    Emitted by the adaptive aggregation path when a merge result crosses
    the density threshold mid-reduction — ``site`` is ``"ring"`` for a
    mid-ring switch (channel/hop/lane identify where) and ``"imm"`` for an
    executor-local merge. ``wire_bytes`` / ``dense_bytes`` are the
    operand's two candidate wire sizes at the switch point.
    """

    kind: ClassVar[str] = "segment_repr"

    site: str  # "ring" | "imm"
    executor_id: int
    rank: int
    channel: str
    hop: int
    from_repr: str
    to_repr: str
    nnz: int
    length: int
    density: float
    wire_bytes: float
    dense_bytes: float
    lane: int = 0


# ------------------------------------------------------------------ phases
@dataclass(frozen=True, slots=True)
class PhaseSpan(TraceEvent):
    """A stopwatch span closed (``agg.compute``, ``ml.driver``, ...).

    Ground truth for the live time decompositions: the CLI's Figure-2
    reconstruction sums these and must agree with the in-process
    :class:`~repro.sim.Stopwatch` exactly.
    """

    kind: ClassVar[str] = "phase"

    key: str
    seconds: float

    @property
    def began(self) -> float:
        return self.time - self.seconds


# ------------------------------------------------------------------ faults
@dataclass(frozen=True, slots=True)
class FaultInjected(TraceEvent):
    """The fault controller fired one planned fault.

    ``fault`` names the fault class (``executor_crash``, ``message_drop``,
    ``message_delay``, ``straggler``, ``nic_degradation``,
    ``nic_restored``, ``straggler_end``); ``trigger`` records what armed
    it (``at_time``, ``stage_boundary``, ``ring_hop``, ``window``,
    ``link``). ``src``/``dst`` are ring ranks for link faults, -1
    otherwise.
    """

    kind: ClassVar[str] = "fault_injected"

    fault: str
    target: str
    trigger: str = ""
    executor_id: int = -1
    src: int = -1
    dst: int = -1
    channel: str = ""
    detail: str = ""


@dataclass(frozen=True, slots=True)
class RecoveryAction(TraceEvent):
    """One step the engine took to survive an injected (or real) fault.

    ``action`` is one of ``ring_abort`` (a collective was torn down after
    failure detection), ``partial_recompute`` (lost partitions re-ran
    through lineage), ``ring_rebuild`` (a new ring over the survivors),
    ``tree_fallback`` (ring attempts exhausted, switched to
    treeAggregate), or ``recovered`` (the aggregation completed;
    ``seconds`` carries the virtual-time cost from first detection to
    completion). ``site`` is ``"ring"`` or ``"tree"``.
    """

    kind: ClassVar[str] = "recovery_action"

    action: str
    site: str = "ring"
    job_id: int = -1
    executor_id: int = -1
    attempt: int = 0
    ranks: int = 0
    seconds: float = 0.0
    detail: str = ""


@dataclass(frozen=True, slots=True)
class CollectiveDowngraded(TraceEvent):
    """A requested fast collective fell back to a slower path.

    Emitted whenever the engine cannot (or can no longer) run the
    collective the spec or tuner asked for — today that means the
    overlapped ``pipelined_ring`` path handing the aggregation to the
    phased fault-tolerant loop. ``reason`` explains why
    (``placement_deviation`` — the IMM stage landed tasks off the
    planned executors; ``streamed_abort`` — a fault tore down the
    overlapped attempt mid-stream). The downgrade preserves
    correctness; this event is the visibility the tuner report and
    users previously lacked.
    """

    kind: ClassVar[str] = "collective_downgraded"

    requested: str
    actual: str
    reason: str
    job_id: int = -1
    detail: str = ""


@dataclass(frozen=True, slots=True)
class ResidualLost(TraceEvent):
    """An executor died holding top-k error-feedback residuals.

    The approximate tier keeps each executor's unsent remainder in
    ``executor.residuals`` so later rounds can re-inject it; a crash
    drops that state silently. This gauge records what was lost:
    ``num_residuals`` buffered arrays with total L2 norm
    ``residual_norm`` (the accumulated error-feedback mass that will
    never be transmitted).
    """

    kind: ClassVar[str] = "residual_lost"

    executor_id: int
    num_residuals: int
    residual_norm: float
    reason: str = ""


@dataclass(frozen=True, slots=True)
class SpeculativeAttempt(TraceEvent):
    """One speculative-execution decision on a straggling task.

    ``action`` is ``launched`` (the monitor cloned the attempt onto a
    backup executor), ``speculative_won`` (the backup finished first
    and committed; the original was cancelled), ``original_won`` (the
    original committed first; the backup lost the commit race or was
    cancelled) or ``backup_failed`` (the backup attempt itself
    errored). ``executor_id`` is the original attempt's executor,
    ``backup_executor_id`` the clone's.
    """

    kind: ClassVar[str] = "speculative_attempt"

    action: str
    stage_id: int
    partition: int
    executor_id: int
    backup_executor_id: int = -1
    attempt: int = 0
    threshold: float = 0.0
    elapsed: float = 0.0


@dataclass(frozen=True, slots=True)
class ExecutorHealth(TraceEvent):
    """An executor's health score changed state.

    ``status`` is ``failure``, ``straggle``, ``quarantined``,
    ``probation`` (the quarantine window expired; the executor may be
    tried again) or ``cleared`` (a probation success reset the score).
    ``score`` is the registry's current weighted strike count,
    ``until`` the quarantine expiry time (0 when not quarantined).
    """

    kind: ClassVar[str] = "executor_health"

    executor_id: int
    status: str
    score: float
    strikes: int = 0
    until: float = 0.0


# ------------------------------------------------------------- collectives
@dataclass(frozen=True, slots=True)
class CollectiveCostEstimate(TraceEvent):
    """The tuner's predicted cost for one candidate configuration.

    One per candidate per tuned aggregation: ``algorithm`` and
    ``parallelism`` identify the candidate, ``predicted`` its modelled
    reduce+gather seconds (calibration correction applied), ``chosen``
    whether the tuner picked it. ``collective_id`` groups the candidates
    of one decision with its :class:`CollectiveChosen` /
    :class:`CollectiveCompleted` pair.
    """

    kind: ClassVar[str] = "collective_cost"

    collective_id: int
    algorithm: str
    parallelism: int
    predicted: float
    chosen: bool = False


@dataclass(frozen=True, slots=True)
class CollectiveChosen(TraceEvent):
    """One split-aggregation's collective configuration was decided.

    Emitted for every aggregation that runs through the strategy
    dispatch — ``source`` is ``"auto"`` when the cost-model tuner chose,
    ``"spec"`` when the spec pinned the algorithm. ``segment_bytes`` is
    the mean per-segment wire size the decision saw; ``ranks`` / ``hosts``
    describe the placement.
    """

    kind: ClassVar[str] = "collective_chosen"

    collective_id: int
    algorithm: str
    parallelism: int
    source: str  # "auto" | "spec"
    ranks: int
    hosts: int
    value_bytes: float
    segment_bytes: float
    predicted: float = 0.0


@dataclass(frozen=True, slots=True)
class CollectiveCompleted(TraceEvent):
    """The reduce+gather window of one dispatched collective closed.

    ``seconds`` is the measured virtual-time span; with ``predicted`` from
    the matching :class:`CollectiveChosen` this is the model's
    prediction-vs-measurement residual, which both the online calibrator
    and the CLI tuner report consume.
    """

    kind: ClassVar[str] = "collective_completed"

    collective_id: int
    algorithm: str
    parallelism: int
    began: float
    seconds: float
    predicted: float = 0.0


# ---------------------------------------------------------------- service
@dataclass(frozen=True, slots=True)
class ServiceJobSubmitted(TraceEvent):
    """A tenant job entered the job service (see :mod:`repro.service`)."""

    kind: ClassVar[str] = "service_job_submitted"

    service_job_id: int
    tenant: str
    pool: str
    workload: str
    queued: bool = False


@dataclass(frozen=True, slots=True)
class ServiceJobFinished(TraceEvent):
    """A tenant job left the job service (any terminal status).

    ``latency`` is submission-to-completion in virtual seconds — the
    quantity the service benchmark reports p50/p99 over.
    """

    kind: ClassVar[str] = "service_job_finished"

    service_job_id: int
    tenant: str
    pool: str
    workload: str
    status: str  # "succeeded" | "failed" | "cancelled"
    submitted: float
    latency: float


@dataclass(frozen=True, slots=True)
class PoolSample(TraceEvent):
    """One FAIR-arbiter accounting sample for one pool."""

    kind: ClassVar[str] = "pool_sample"

    pool: str
    weight: float
    running: int
    task_seconds: float
    queued_tickets: int


# --------------------------------------------------------------- sampling
@dataclass(frozen=True, slots=True)
class NicSample(TraceEvent):
    """One NIC utilization sample from a monitor process."""

    kind: ClassVar[str] = "nic_sample"

    node_id: int
    hostname: str
    is_driver: bool
    in_rate: float
    out_rate: float
    in_utilization: float
    out_utilization: float


#: discriminator -> event class, for deserialization
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        JobStart, JobEnd, StageSubmitted, StageCompleted, TaskStart,
        TaskEnd, BlockEvent, ColumnarFold, MessageSent, MessageDelivered,
        RingHop,
        ChunkStream, ResidualNorm, ImmMerge, SegmentRepresentation,
        PhaseSpan, NicSample, FaultInjected, RecoveryAction,
        CollectiveDowngraded, ResidualLost, SpeculativeAttempt,
        ExecutorHealth, CollectiveCostEstimate, CollectiveChosen,
        CollectiveCompleted, ServiceJobSubmitted, ServiceJobFinished,
        PoolSample,
    )
}


def _first_fast(cls: type, **values: Any) -> Any:
    _generate(cls)
    return cls.fast(**values)


def _first_to_record(self: Any) -> Dict[str, Any]:
    _generate(type(self))
    return self.to_record()


# Generated on first use: compiling every class's pair at import costs
# each process 6 ms, and a run emits a handful of the kinds.
for _cls in (TraceEvent, TaskMetrics, *EVENT_TYPES.values()):
    _cls.fast, _cls.to_record = classmethod(_first_fast), _first_to_record


def event_from_record(record: Dict[str, Any]) -> TraceEvent:
    """Rebuild a typed event from its JSON record."""
    try:
        cls = EVENT_TYPES[record["event"]]
    except KeyError:
        raise ValueError(
            f"unknown event kind {record.get('event')!r}") from None
    return cls.from_record(record)
