"""Structured observability for the simulated engine (``repro.obs``).

The paper's own methodology (§2.3) is observability: the authors located
MLlib's bottleneck by mining Spark history logs. This package generalizes
that from stage granularity down to tasks, messages and ring hops:

* :mod:`repro.obs.events` — the typed event vocabulary (``JobStart``,
  ``TaskEnd`` with :class:`~repro.obs.events.TaskMetrics`, ``RingHop``,
  ``ImmMerge``, ...), each serializable to one JSON object,
* :mod:`repro.obs.bus` — the :class:`EventBus` (Spark's ``ListenerBus``
  analogue) owned by every :class:`~repro.rdd.context.SparkerContext`;
  with no listeners attached every emission is a constant-time no-op and
  the simulation is bit-for-bit identical to an uninstrumented run,
* :mod:`repro.obs.log` — JSON-lines event-log export/import with a
  versioned schema,
* :mod:`repro.obs.chrome_trace` — a Chrome ``trace_event`` / Perfetto
  exporter laying out executors×cores, the driver, and NIC lanes on the
  virtual-time axis,
* :mod:`repro.obs.metrics` — one labeled store of counters / gauges /
  histograms over virtual-time windows with exact quantile queries, the
  bus-fed :class:`MetricsListener` that fills it, and a
  :class:`NicMonitor` process sampling NIC utilization,
* :mod:`repro.obs.tracing` — the causal-span allocator
  (:class:`Tracer`, owned by every bus) stamping
  ``span_id``/``parent_span_id`` on traced events,
* :mod:`repro.obs.critical_path` — the one report of a recorded run,
  built in one pass: the Figure-2-style phase and stage decomposition,
  exact per-job makespan attribution (compute / serde / wire / queueing /
  recovery), one row per collective (tuner decision, measured window,
  slowest hop), stragglers, driver-NIC saturation, sparse savings and
  the fault report with its recovery epochs
  (``python -m repro.obs events.jsonl`` renders it).

Capture a trace::

    from repro.obs import EventLogWriter

    sc = SparkerSession(ClusterConfig.bic()).context()
    with EventLogWriter("events.jsonl").attached_to(sc.event_bus):
        ...  # run the workload

then ``python -m repro.obs events.jsonl`` for the decomposition, or
``python -m repro.obs events.jsonl --chrome trace.json`` for Perfetto.
"""

from .bus import EventBus, RecordingListener
from .chrome_trace import chrome_trace, write_chrome_trace
from .critical_path import (
    CollectiveAttribution,
    CriticalPathReport,
    CriticalTask,
    FaultReport,
    JobAttribution,
    RecoveryEpoch,
    SEGMENT_LABELS,
    Segment,
    SparseSavings,
    attribute_critical_path,
    classify_stage,
)
from .events import (
    BlockEvent,
    ChunkStream,
    CollectiveChosen,
    CollectiveCompleted,
    CollectiveCostEstimate,
    CollectiveDowngraded,
    ColumnarFold,
    EVENT_TYPES,
    ExecutorHealth,
    FaultInjected,
    ImmMerge,
    JobEnd,
    JobStart,
    MessageDelivered,
    MessageSent,
    NicSample,
    PhaseSpan,
    PoolSample,
    RecoveryAction,
    ResidualLost,
    ResidualNorm,
    RingHop,
    SegmentRepresentation,
    ServiceJobFinished,
    ServiceJobSubmitted,
    SpeculativeAttempt,
    StageCompleted,
    StageSubmitted,
    TaskEnd,
    TaskMetrics,
    TaskStart,
    TraceEvent,
    channel_str,
    event_from_record,
)
from .log import SCHEMA_NAME, SCHEMA_VERSION, EventLogWriter, dump_events, load_events
from .metrics import (
    Gauge,
    Histogram,
    MetricCounter,
    MetricsListener,
    MetricsStore,
    NicMonitor,
)
from .tracing import NO_SPAN, Tracer

__all__ = [
    "EventBus",
    "RecordingListener",
    "TraceEvent",
    "EVENT_TYPES",
    "event_from_record",
    "channel_str",
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
    "EventLogWriter",
    "dump_events",
    "load_events",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "chrome_trace",
    "write_chrome_trace",
    "MetricsStore",
    "MetricCounter",
    "Gauge",
    "Histogram",
    "MetricsListener",
    "NicMonitor",
    "FaultReport",
    "SparseSavings",
    "classify_stage",
    "Tracer",
    "NO_SPAN",
    "SEGMENT_LABELS",
    "Segment",
    "CriticalTask",
    "JobAttribution",
    "CollectiveAttribution",
    "RecoveryEpoch",
    "CriticalPathReport",
    "attribute_critical_path",
]
