"""Event-log analysis: decompositions, stragglers, NIC saturation.

Recomputes the paper's §2.3 methodology from a recorded event stream
instead of live instrumentation:

* :func:`phase_decomposition` — sums :class:`~repro.obs.events.PhaseSpan`
  records back into the stopwatch totals (``agg.compute``,
  ``agg.reduce``, ``ml.driver``, ...); by construction this matches the
  in-process :class:`~repro.sim.Stopwatch` exactly,
* :func:`classify_stage` — the canonical stage classification, the
  authors' rule for mining the same decomposition from stage logs,
* :func:`analyze_events` — the full :class:`TraceAnalysis`: phase and
  stage decompositions, straggler detection (tasks slower than a factor
  of their stage's median) and driver-NIC saturation windows.

``python -m repro.obs events.jsonl`` renders all of this as text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .events import (
    CollectiveChosen,
    CollectiveCompleted,
    CollectiveCostEstimate,
    CollectiveDowngraded,
    FaultInjected,
    NicSample,
    RecoveryAction,
    ResidualLost,
    SpeculativeAttempt,
    TaskEnd,
    TraceEvent,
)

__all__ = [
    "AGG_COMPUTE_MARKERS",
    "AGG_REDUCE_MARKERS",
    "classify_stage",
    "phase_decomposition",
    "Straggler",
    "SaturationWindow",
    "SparseSavings",
    "FaultReport",
    "TunerReport",
    "TraceAnalysis",
    "analyze_events",
]

#: RDD names that mark the *first* stage of an aggregation (the seqOp
#: pass; tree level 0's map side contains the partial aggregation)
AGG_COMPUTE_MARKERS: Tuple[str, ...] = ("partialAggregate", "treeAgg:level0")
#: RDD names that mark reduction stages of an aggregation
AGG_REDUCE_MARKERS: Tuple[str, ...] = ("treeAgg:", "treeAggValues",
                                       "SpawnRDD")


def classify_stage(stage_kind: str, rdd_name: str) -> str:
    """Decomposition bucket of a stage: the authors' log-mining rule.

    The partial-aggregation pass is compute; tree levels, SpawnRDD
    launches and the aggregation's result stages are reduction;
    everything else is other work. The reduced-result (IMM) stage
    computes partials, so it counts as compute.
    """
    if stage_kind == "reduced_result":
        return "agg_compute"
    if any(rdd_name.startswith(m) for m in AGG_COMPUTE_MARKERS):
        return "agg_compute"
    if any(rdd_name.startswith(m) for m in AGG_REDUCE_MARKERS):
        return "agg_reduce"
    return "other"


def phase_decomposition(events: Iterable[TraceEvent]) -> Dict[str, float]:
    """Total seconds per stopwatch phase key, from ``PhaseSpan`` events."""
    totals: Dict[str, float] = {}
    for event in events:
        if event.kind == "phase":
            totals[event.key] = totals.get(event.key, 0.0) + event.seconds
    return totals


@dataclass(frozen=True)
class Straggler:
    """A task attempt that ran slower than its stage's typical task."""

    stage_id: int
    stage_attempt: int
    partition: int
    executor_id: int
    duration: float
    stage_median: float

    @property
    def slowdown(self) -> float:
        return (self.duration / self.stage_median
                if self.stage_median > 0 else float("inf"))


@dataclass
class SparseSavings:
    """Bytes-on-wire effect of the density-adaptive aggregation path.

    Accumulated from :class:`~repro.obs.events.RingHop` spans that carry
    the dense-equivalent size of each send, plus the representation
    switch points (:class:`~repro.obs.events.SegmentRepresentation`).
    ``dense_send_bytes - wire_send_bytes`` is the total saving the
    SparCML-style per-send format switch achieved.
    """

    sparse_hops: int = 0
    dense_hops: int = 0
    #: bytes that actually crossed the ring wire
    wire_send_bytes: float = 0.0
    #: what the same sends would have cost in the dense format (only hops
    #: that recorded their dense-equivalent size contribute)
    dense_send_bytes: float = 0.0
    #: representation switch points, in event order
    switches: List["TraceEvent"] = field(default_factory=list)
    #: imm merges observed while the shared value was still sparse
    sparse_imm_merges: int = 0

    @property
    def bytes_saved(self) -> float:
        return max(self.dense_send_bytes - self.wire_send_bytes, 0.0)

    @property
    def savings_ratio(self) -> float:
        """Fraction of dense-format ring traffic that never hit the wire."""
        if self.dense_send_bytes <= 0:
            return 0.0
        return self.bytes_saved / self.dense_send_bytes

    @property
    def observed(self) -> bool:
        """Whether any hop ran in the sparse wire format."""
        return self.sparse_hops > 0 or bool(self.switches)


@dataclass
class FaultReport:
    """What the fault controller injected and how the engine answered.

    ``detection_latency`` pairs each *detectable* injected fault (crashes
    and message drops) with the virtual seconds between injection and the
    first recovery action at or after it; ``recovery_by_job`` maps job id
    to the total virtual-time cost reported by that job's ``recovered``
    actions (first detection to completed aggregation).
    """

    #: every FaultInjected, in event order
    injected: List[FaultInjected] = field(default_factory=list)
    #: every RecoveryAction, in event order
    actions: List[RecoveryAction] = field(default_factory=list)
    #: (fault, latency_seconds) for faults a recovery action answered
    detection_latency: List[Tuple[FaultInjected, float]] = \
        field(default_factory=list)
    #: job id -> recovery virtual-time cost (from "recovered" actions)
    recovery_by_job: Dict[int, float] = field(default_factory=dict)
    #: fast-path downgrades (pipelined -> phased), in event order
    downgrades: List[CollectiveDowngraded] = field(default_factory=list)
    #: error-feedback residual state lost to executor deaths
    residual_losses: List[ResidualLost] = field(default_factory=list)
    #: speculative-execution decisions, in event order
    speculation: List[SpeculativeAttempt] = field(default_factory=list)

    @property
    def observed(self) -> bool:
        return bool(self.injected or self.actions or self.downgrades
                    or self.residual_losses or self.speculation)

    @property
    def residual_norm_lost(self) -> float:
        """Total L2 norm of error-feedback residuals lost to deaths."""
        return sum(loss.residual_norm for loss in self.residual_losses)

    def finalize(self) -> None:
        """Derive latencies and per-job costs from the raw event lists."""
        detectable = ("executor_crash", "message_drop")
        for fault in self.injected:
            if fault.fault not in detectable:
                continue
            answer = next((a for a in self.actions
                           if a.time >= fault.time), None)
            if answer is not None:
                self.detection_latency.append(
                    (fault, answer.time - fault.time))
        for action in self.actions:
            if action.action == "recovered":
                self.recovery_by_job[action.job_id] = (
                    self.recovery_by_job.get(action.job_id, 0.0)
                    + action.seconds)


@dataclass
class TunerReport:
    """How the collective engine chose, and how well it predicted.

    Collects every :class:`~repro.obs.events.CollectiveChosen` /
    :class:`~repro.obs.events.CollectiveCompleted` pair (joined on
    ``collective_id``) plus the candidate estimates of each tuned
    decision. ``rows`` is the CLI table: one line per dispatched
    collective with its predicted and measured reduce+gather seconds and
    the relative model error (tuned decisions only — pinned specs carry
    no prediction).
    """

    chosen: List[CollectiveChosen] = field(default_factory=list)
    completed: List[CollectiveCompleted] = field(default_factory=list)
    estimates: List[CollectiveCostEstimate] = field(default_factory=list)
    #: (chosen, completed-or-None, relative_error-or-None), decision order
    rows: List[Tuple[CollectiveChosen, Optional[CollectiveCompleted],
                     Optional[float]]] = field(default_factory=list)

    @property
    def observed(self) -> bool:
        return bool(self.chosen)

    @property
    def tuned_count(self) -> int:
        return sum(1 for c in self.chosen if c.source == "auto")

    @property
    def mean_abs_error(self) -> float:
        """Mean |predicted - measured| / measured over tuned decisions."""
        errors = [e for _, _, e in self.rows if e is not None]
        if not errors:
            return 0.0
        return sum(abs(e) for e in errors) / len(errors)

    def finalize(self) -> None:
        """Join decisions with their measured spans into ``rows``."""
        done = {c.collective_id: c for c in self.completed}
        for decision in self.chosen:
            completion = done.get(decision.collective_id)
            error: Optional[float] = None
            if (completion is not None and decision.source == "auto"
                    and completion.seconds > 0):
                error = ((completion.predicted - completion.seconds)
                         / completion.seconds)
            self.rows.append((decision, completion, error))


@dataclass(frozen=True)
class SaturationWindow:
    """A contiguous run of NIC samples at or above the threshold."""

    node_id: int
    hostname: str
    direction: str  # "in" | "out"
    start: float
    end: float
    peak_utilization: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TraceAnalysis:
    """Everything the CLI reports, computed from one event log."""

    span: Tuple[float, float]  # first / last event time
    phases: Dict[str, float] = field(default_factory=dict)
    stage_totals: Dict[str, float] = field(default_factory=dict)
    stage_count: int = 0
    unfinished_stages: int = 0
    job_count: int = 0
    task_count: int = 0
    task_failures: int = 0
    message_count: int = 0
    message_bytes: float = 0.0
    ring_hop_count: int = 0
    imm_merge_count: int = 0
    stragglers: List[Straggler] = field(default_factory=list)
    saturation: List[SaturationWindow] = field(default_factory=list)
    sparse: SparseSavings = field(default_factory=SparseSavings)
    faults: FaultReport = field(default_factory=FaultReport)
    tuner: TunerReport = field(default_factory=TunerReport)

    @property
    def total_time(self) -> float:
        return self.span[1] - self.span[0]

    @property
    def aggregation_share(self) -> float:
        """Share of classified stage time inside aggregation (Figure 2)."""
        total = sum(self.stage_totals.values())
        if not total:
            return 0.0
        return (self.stage_totals.get("agg_compute", 0.0)
                + self.stage_totals.get("agg_reduce", 0.0)) / total


def _median(sorted_values: Sequence[float]) -> float:
    n = len(sorted_values)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return sorted_values[mid]
    return 0.5 * (sorted_values[mid - 1] + sorted_values[mid])


def _find_stragglers(task_ends: Sequence[TaskEnd],
                     factor: float) -> List[Straggler]:
    by_stage: Dict[Tuple[int, int], List[TaskEnd]] = {}
    for event in task_ends:
        by_stage.setdefault((event.stage_id, event.stage_attempt),
                            []).append(event)
    found: List[Straggler] = []
    for (stage_id, attempt), tasks in sorted(by_stage.items()):
        if len(tasks) < 2:
            continue  # a single task has no peers to straggle behind
        median = _median(sorted(t.duration for t in tasks))
        if median <= 0:
            continue
        for t in tasks:
            if t.duration > factor * median:
                found.append(Straggler(
                    stage_id=stage_id, stage_attempt=attempt,
                    partition=t.partition, executor_id=t.executor_id,
                    duration=t.duration, stage_median=median))
    found.sort(key=lambda s: -s.slowdown)
    return found


def _saturation_windows(samples: Sequence[NicSample],
                        threshold: float) -> List[SaturationWindow]:
    """Contiguous ≥-threshold runs per (node, direction), sample-aligned."""
    windows: List[SaturationWindow] = []
    by_node: Dict[int, List[NicSample]] = {}
    for s in samples:
        by_node.setdefault(s.node_id, []).append(s)
    for node_id, series in sorted(by_node.items()):
        series.sort(key=lambda s: s.time)
        for direction in ("in", "out"):
            start: Optional[float] = None
            end = 0.0
            peak = 0.0
            for s in series:
                util = (s.in_utilization if direction == "in"
                        else s.out_utilization)
                if util >= threshold:
                    if start is None:
                        start = s.time
                        peak = util
                    end = s.time
                    peak = max(peak, util)
                elif start is not None:
                    windows.append(SaturationWindow(
                        node_id=node_id, hostname=series[0].hostname,
                        direction=direction, start=start, end=end,
                        peak_utilization=peak))
                    start = None
            if start is not None:
                windows.append(SaturationWindow(
                    node_id=node_id, hostname=series[0].hostname,
                    direction=direction, start=start, end=end,
                    peak_utilization=peak))
    windows.sort(key=lambda w: (w.start, w.node_id, w.direction))
    return windows


def analyze_events(events: Iterable[TraceEvent], *,
                   straggler_factor: float = 2.0,
                   saturation_threshold: float = 0.9,
                   driver_only_saturation: bool = True) -> TraceAnalysis:
    """Compute the full analysis over one event stream.

    ``straggler_factor`` flags tasks slower than that multiple of their
    stage's median duration; ``saturation_threshold`` is the NIC
    utilization level that counts as saturated. By default only the
    *driver's* NIC is scanned for saturation — the paper's bottleneck —
    pass ``driver_only_saturation=False`` to scan every node.
    """
    events = list(events)
    if not events:
        return TraceAnalysis(span=(0.0, 0.0))
    analysis = TraceAnalysis(
        span=(min(e.time for e in events), max(e.time for e in events)))
    analysis.phases = phase_decomposition(events)

    task_ends: List[TaskEnd] = []
    nic_samples: List[NicSample] = []
    open_stages = 0
    for event in events:
        kind = event.kind
        if kind == "stage_submitted":
            analysis.stage_count += 1
            open_stages += 1
        elif kind == "stage_completed":
            open_stages -= 1
            bucket = classify_stage(event.stage_kind, event.rdd_name)
            analysis.stage_totals[bucket] = (
                analysis.stage_totals.get(bucket, 0.0)
                + (event.time - event.began))
        elif kind == "job_end":
            analysis.job_count += 1
        elif kind == "task_end":
            analysis.task_count += 1
            if event.status != "ok":
                analysis.task_failures += 1
            else:
                task_ends.append(event)
        elif kind == "message_sent":
            analysis.message_count += 1
            analysis.message_bytes += event.nbytes
        elif kind == "ring_hop":
            analysis.ring_hop_count += 1
            sparse = analysis.sparse
            if event.send_repr == "sparse":
                sparse.sparse_hops += 1
            else:
                sparse.dense_hops += 1
            if event.send_dense_bytes > 0:
                sparse.wire_send_bytes += event.send_bytes
                sparse.dense_send_bytes += event.send_dense_bytes
        elif kind == "segment_repr":
            analysis.sparse.switches.append(event)
        elif kind == "imm_merge":
            analysis.imm_merge_count += 1
            if event.representation == "sparse":
                analysis.sparse.sparse_imm_merges += 1
        elif kind == "fault_injected":
            analysis.faults.injected.append(event)
        elif kind == "recovery_action":
            analysis.faults.actions.append(event)
        elif kind == "collective_downgraded":
            analysis.faults.downgrades.append(event)
        elif kind == "residual_lost":
            analysis.faults.residual_losses.append(event)
        elif kind == "speculative_attempt":
            analysis.faults.speculation.append(event)
        elif kind == "collective_chosen":
            analysis.tuner.chosen.append(event)
        elif kind == "collective_completed":
            analysis.tuner.completed.append(event)
        elif kind == "collective_cost":
            analysis.tuner.estimates.append(event)
        elif kind == "nic_sample":
            if event.is_driver or not driver_only_saturation:
                nic_samples.append(event)
    analysis.unfinished_stages = max(open_stages, 0)
    analysis.faults.finalize()
    analysis.tuner.finalize()
    analysis.stragglers = _find_stragglers(task_ends, straggler_factor)
    analysis.saturation = _saturation_windows(nic_samples,
                                              saturation_threshold)
    return analysis
