"""One account of a finished job: the critical-path report.

:func:`attribute_critical_path` reads a recorded event stream once and
builds one :class:`CriticalPathReport`, the only model of a finished run
in ``repro.obs``. It answers *where the time went* at three grains:

* the paper's §2.3 decomposition: stopwatch phase totals (``phases``,
  the :class:`~repro.obs.events.PhaseSpan` records summed, so they equal
  the live :class:`~repro.sim.Stopwatch`) and Figure 2's stage buckets
  (``stage_totals``, by :func:`classify_stage`, the authors' stage-log
  rule);
* every finished job's makespan, partitioned into contiguous,
  non-overlapping segments labelled

  * ``compute``  — task user code and IMM merge CPU,
  * ``serde``    — serialization / deserialization CPU,
  * ``wire``     — network time on the critical path (shuffle fetch minus
    its CPU share, result shipping),
  * ``queueing`` — waiting for an executor core or the IMM merge lock,
  * ``overhead`` — task launch bookkeeping,
  * ``driver``   — scheduler gaps, task dispatch, stage wrap-up, and
    driver-side result handling,
  * ``other``    — windows the log cannot explain (e.g. a stage with no
    task events in a partial log);
* every dispatched collective: its placement, the measured window, its
  slowest hop and rank chain.

Beside these it carries the run's counts, the sparse wire savings and
the fault report (injected faults, recovery actions and epochs,
downgrades, lost residuals, speculation).

The partition is exact *by construction*: segment boundaries are laid
out cumulatively from task metrics and the final boundary of every
window is forced onto the window's true endpoint, so per-job segment
seconds always sum to the job's virtual makespan (modulo float
summation dust). That invariant is what the acceptance tests pin.

The analyzer is span-aware but does not require spans: when events
carry ``span_id``/``parent_span_id`` (a traced run) they are used to
bind recovery epochs to recompute jobs and ring hops to collectives;
detached-mode logs fall back to virtual-time windows keyed by
``job_id`` / ``collective_id``. Degenerate logs (empty, truncated,
unfinished jobs, several contexts in one log) produce a report with
notes instead of raising. ``python -m repro.obs events.jsonl`` renders
the report as text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .events import (
    CollectiveDowngraded,
    FaultInjected,
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
    "Segment",
    "CriticalTask",
    "JobAttribution",
    "HopBlame",
    "CollectiveAttribution",
    "RecoveryEpoch",
    "UnfinishedJob",
    "SparseSavings",
    "FaultReport",
    "CriticalPathReport",
    "attribute_critical_path",
    "SEGMENT_LABELS",
]

#: every label a Segment may carry, in report order
SEGMENT_LABELS = ("compute", "serde", "wire", "queueing", "overhead",
                  "driver", "recovery", "other")

#: RDD names that mark the *first* stage of an aggregation (the seqOp
#: pass; tree level 0's map side contains the partial aggregation)
AGG_COMPUTE_MARKERS: Tuple[str, ...] = ("partialAggregate", "treeAgg:level0")
#: RDD names that mark reduction stages of an aggregation
AGG_REDUCE_MARKERS: Tuple[str, ...] = ("treeAgg:", "treeAggValues",
                                       "SpawnRDD")

#: injected faults a recovery action answers (detection latency pairs them)
_DETECTABLE = ("executor_crash", "message_drop")

_EPS = 1e-9


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


@dataclass(frozen=True)
class Segment:
    """One contiguous slice of a job's critical-path timeline."""

    label: str
    began: float
    ended: float
    detail: str = ""

    @property
    def seconds(self) -> float:
        return self.ended - self.began


@dataclass(frozen=True)
class CriticalTask:
    """The last-finishing task of one stage — the stage's critical task."""

    stage_id: int
    stage_attempt: int
    partition: int
    attempt: int
    executor_id: int
    began: float
    ended: float


@dataclass
class JobAttribution:
    """One finished job's exact makespan partition."""

    job_id: int
    job_kind: str
    rdd_name: str
    began: float
    ended: float
    succeeded: bool
    #: True when this job ran inside a fault-recovery epoch (a lineage
    #: recompute or a post-rebuild retry)
    recovery: bool = False
    segments: List[Segment] = field(default_factory=list)
    critical_tasks: List[CriticalTask] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.ended - self.began

    def totals(self) -> Dict[str, float]:
        """Seconds per segment label; sums to :attr:`makespan`."""
        out: Dict[str, float] = {}
        for seg in self.segments:
            out[seg.label] = out.get(seg.label, 0.0) + seg.seconds
        return out


@dataclass(frozen=True)
class HopBlame:
    """One ring/HD hop identified as slowest in its collective."""

    channel: str
    rank: int
    executor_id: int
    hop: int
    began: float
    ended: float
    merge_time: float

    @property
    def seconds(self) -> float:
        return self.ended - self.began


@dataclass
class CollectiveAttribution:
    """One dispatched collective: its decision, window and blame.

    Joined on ``collective_id`` from the ``collective_chosen`` and
    ``collective_completed`` records, so a decision that never completed
    still appears (``seconds`` is None, the window is the decision
    instant), and so does a completion with no decision (a stream torn
    down before it was announced: ``ranks`` is 0).
    """

    collective_id: int
    algorithm: str
    parallelism: int
    began: float
    ended: float
    #: measured reduce+gather seconds; None when it never completed
    seconds: Optional[float] = None
    #: placement from the decision record; 0 when none was joined
    ranks: int = 0
    hosts: int = 0
    value_bytes: float = 0.0
    hop_count: int = 0
    #: the single longest hop span (None for hop-free algorithms)
    slowest_hop: Optional[HopBlame] = None
    #: the (channel, rank) whose summed hop time is largest — the rank
    #: chain the collective actually waited for
    chain_channel: str = ""
    chain_rank: int = -1
    chain_seconds: float = 0.0
    chain_merge_seconds: float = 0.0
    #: chunk-stream spans bound to this collective (pipelined_ring only)
    chunk_streams: int = 0
    #: hop seconds that ran concurrently with another hop: the sum of all
    #: hop durations minus the length of their busy union. Parallel ring
    #: channels already overlap; ``pipelined_ring``'s chunk columns add
    #: the wire time hidden under other columns' merges, so this is the
    #: overlapped wire/merge time the makespan never saw.
    overlapped_hop_seconds: float = 0.0

    @property
    def chain_wire_seconds(self) -> float:
        return max(self.chain_seconds - self.chain_merge_seconds, 0.0)


@dataclass
class RecoveryEpoch:
    """One detection -> recovered window of the fault-tolerant engine."""

    began: float
    ended: float
    actions: int
    recovered: bool
    #: virtual-time cost, first detection to completed aggregation
    seconds: float
    #: span ids belonging to this epoch (empty on detached logs)
    span_ids: Tuple[int, ...] = ()
    #: the job of the closing ``recovered`` action (-1 when unrecovered)
    job_id: int = -1


@dataclass(frozen=True)
class UnfinishedJob:
    """A job the log opens but never closes (truncated / crashed run)."""

    job_id: int
    job_kind: str
    rdd_name: str
    began: float
    note: str = "no job_end record"


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
    switches: List[TraceEvent] = field(default_factory=list)
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
    first recovery action at or after it. What recovery cost is the
    report's ``recovery_epochs``.
    """

    #: every FaultInjected, in event order
    injected: List[FaultInjected] = field(default_factory=list)
    #: every RecoveryAction, in event order
    actions: List[RecoveryAction] = field(default_factory=list)
    #: (fault, latency_seconds) for faults a recovery action answered
    detection_latency: List[Tuple[FaultInjected, float]] = \
        field(default_factory=list)
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


@dataclass
class CriticalPathReport:
    """Everything :func:`attribute_critical_path` reconstructed."""

    jobs: List[JobAttribution] = field(default_factory=list)
    collectives: List[CollectiveAttribution] = field(default_factory=list)
    recovery_epochs: List[RecoveryEpoch] = field(default_factory=list)
    unfinished: List[UnfinishedJob] = field(default_factory=list)
    #: first / last event time
    span: Tuple[float, float] = (0.0, 0.0)
    #: stopwatch phase key -> seconds (``agg.compute``, ``ml.driver``, ...)
    phases: Dict[str, float] = field(default_factory=dict)
    #: Figure 2 bucket -> seconds of completed stages
    stage_totals: Dict[str, float] = field(default_factory=dict)
    stage_count: int = 0
    #: stages submitted but never completed
    unfinished_stages: int = 0
    job_count: int = 0
    task_count: int = 0
    task_failures: int = 0
    message_count: int = 0
    message_bytes: float = 0.0
    ring_hop_count: int = 0
    imm_merge_count: int = 0
    sparse: SparseSavings = field(default_factory=SparseSavings)
    faults: FaultReport = field(default_factory=FaultReport)
    #: what the log held that the report could not attribute, and why
    notes: List[str] = field(default_factory=list)

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

    def totals(self) -> Dict[str, float]:
        """Aggregate seconds per label across jobs.

        Jobs flagged ``recovery`` contribute their whole makespan under
        ``recovery`` — from the workload's point of view a lineage
        recompute *is* recovery cost, whatever it spent inside.
        """
        out: Dict[str, float] = {}
        for job in self.jobs:
            if job.recovery:
                out["recovery"] = out.get("recovery", 0.0) + job.makespan
                continue
            for label, seconds in job.totals().items():
                out[label] = out.get(label, 0.0) + seconds
        return out


# ---------------------------------------------------------------- helpers
def _critical_task(task_ends: List[TaskEnd]) -> Optional[TaskEnd]:
    """The stage's last-finishing attempt (ties: highest partition)."""
    if not task_ends:
        return None
    return max(task_ends, key=lambda e: (e.time, e.partition, e.attempt))


def _recovery_epochs(actions: List[RecoveryAction]) -> List[RecoveryEpoch]:
    actions = sorted(actions, key=lambda e: e.time)
    epochs: List[RecoveryEpoch] = []
    open_began: Optional[float] = None
    open_count = 0
    open_spans: List[int] = []
    for action in actions:
        if open_began is None:
            open_began = action.time
            open_count = 0
            open_spans = []
        open_count += 1
        # the "recovered" action carries the epoch span itself; every
        # other action is parented to it
        if action.action == "recovered":
            if action.span_id >= 0:
                open_spans.append(action.span_id)
            began = open_began
            if action.seconds > 0:
                began = min(began, action.time - action.seconds)
            epochs.append(RecoveryEpoch(
                began=began, ended=action.time, actions=open_count,
                recovered=True, seconds=action.seconds,
                span_ids=tuple(sorted(set(open_spans))),
                job_id=action.job_id))
            open_began = None
        elif action.parent_span_id >= 0:
            open_spans.append(action.parent_span_id)
    if open_began is not None and open_count:
        last = actions[-1].time
        epochs.append(RecoveryEpoch(
            began=open_began, ended=last, actions=open_count,
            recovered=False, seconds=last - open_began,
            span_ids=tuple(sorted(set(open_spans)))))
    return epochs


def _job_in_recovery(job_start: TraceEvent,
                     epochs: List[RecoveryEpoch]) -> bool:
    parent = getattr(job_start, "parent_span_id", -1)
    for epoch in epochs:
        if parent >= 0 and parent in epoch.span_ids:
            return True
        if epoch.began - _EPS <= job_start.time <= epoch.ended + _EPS:
            return True
    return False


# ---------------------------------------------------------------- analyzer
def attribute_critical_path(
        events: Iterable[TraceEvent]) -> CriticalPathReport:
    """Build the one report of a recorded run, in one pass over ``events``.

    Never raises on degenerate input: empty iterables, logs truncated
    mid-job, detached-mode streams with no job events, stages with
    missing task records and logs that mix several contexts all land in
    the report as ``unfinished`` entries, ``notes`` or ``other``-labelled
    segments.
    """
    report = CriticalPathReport()
    phases, stage_totals = report.phases, report.stage_totals
    sparse, faults = report.sparse, report.faults

    job_starts: Dict[int, TraceEvent] = {}
    job_ends: Dict[int, TraceEvent] = {}
    stages_by_job: Dict[int, List[TraceEvent]] = {}
    stage_done: Dict[Tuple[int, int], TraceEvent] = {}
    tasks_by_stage: Dict[Tuple[int, int], List[TaskEnd]] = {}
    imm_by_key: Dict[Tuple[int, int, int], List[TraceEvent]] = {}
    chosen: Dict[int, TraceEvent] = {}
    completed: Dict[int, TraceEvent] = {}
    ring_hops: List[TraceEvent] = []
    streams: List[TraceEvent] = []
    stage_owner: Dict[Tuple[int, int], int] = {}
    # jobs whose id or stage ids a second context reuses in the same log
    reused_jobs: Set[int] = set()
    reused_collectives: Set[int] = set()
    first, last = float("inf"), float("-inf")
    open_stages = 0
    for event in events:
        kind, time = event.kind, event.time
        if time < first:
            first = time
        if time > last:
            last = time
        if kind == "task_end":
            report.task_count += 1
            if event.status != "ok":
                report.task_failures += 1
            tasks_by_stage.setdefault(
                (event.stage_id, event.stage_attempt), []).append(event)
        elif kind == "message_sent":
            report.message_count += 1
            report.message_bytes += event.nbytes
        elif kind == "ring_hop":
            report.ring_hop_count += 1
            if event.send_repr == "sparse":
                sparse.sparse_hops += 1
            else:
                sparse.dense_hops += 1
            if event.send_dense_bytes > 0:
                sparse.wire_send_bytes += event.send_bytes
                sparse.dense_send_bytes += event.send_dense_bytes
            ring_hops.append(event)
        elif kind == "imm_merge":
            report.imm_merge_count += 1
            if event.representation == "sparse":
                sparse.sparse_imm_merges += 1
            imm_by_key.setdefault(
                (event.job_id, event.stage_id, event.executor_id),
                []).append(event)
        elif kind == "stage_submitted":
            report.stage_count += 1
            open_stages += 1
            stages_by_job.setdefault(event.job_id, []).append(event)
            owner = stage_owner.setdefault((event.stage_id, event.attempt),
                                           event.job_id)
            if owner != event.job_id:
                reused_jobs.update((owner, event.job_id))
        elif kind == "stage_completed":
            open_stages -= 1
            bucket = classify_stage(event.stage_kind, event.rdd_name)
            stage_totals[bucket] = (stage_totals.get(bucket, 0.0)
                                    + (time - event.began))
            stage_done[(event.stage_id, event.attempt)] = event
        elif kind == "job_start":
            if event.job_id in job_starts:
                reused_jobs.add(event.job_id)
            job_starts[event.job_id] = event
        elif kind == "job_end":
            report.job_count += 1
            job_ends[event.job_id] = event
        elif kind == "phase":
            phases[event.key] = phases.get(event.key, 0.0) + event.seconds
        elif kind == "segment_repr":
            sparse.switches.append(event)
        elif kind == "chunk_stream":
            streams.append(event)
        elif kind == "collective_chosen":
            if event.collective_id in chosen:
                reused_collectives.add(event.collective_id)
            chosen[event.collective_id] = event
        elif kind == "collective_completed":
            if event.collective_id in completed:
                reused_collectives.add(event.collective_id)
            completed[event.collective_id] = event
        elif kind == "fault_injected":
            faults.injected.append(event)
        elif kind == "recovery_action":
            faults.actions.append(event)
        elif kind == "collective_downgraded":
            faults.downgrades.append(event)
        elif kind == "residual_lost":
            faults.residual_losses.append(event)
        elif kind == "speculative_attempt":
            faults.speculation.append(event)

    if first <= last:
        report.span = (first, last)
    report.unfinished_stages = max(open_stages, 0)
    for fault in faults.injected:
        if fault.fault in _DETECTABLE:
            answer = next((a for a in faults.actions
                           if a.time >= fault.time), None)
            if answer is not None:
                faults.detection_latency.append(
                    (fault, answer.time - fault.time))
    report.recovery_epochs = _recovery_epochs(faults.actions)
    if reused_jobs:
        report.notes.append(
            f"job ids {sorted(reused_jobs)} open more than once or share "
            f"stage ids (the log mixes contexts): those jobs are not "
            f"attributed")
    if reused_collectives:
        report.notes.append(
            f"collective ids {sorted(reused_collectives)} recur (the log "
            f"mixes contexts): those collectives are not attributed")

    for job_id in sorted(job_starts):
        if job_id in reused_jobs:
            continue
        js = job_starts[job_id]
        je = job_ends.get(job_id)
        if je is None:
            report.unfinished.append(UnfinishedJob(
                job_id=job_id, job_kind=js.job_kind,
                rdd_name=js.rdd_name, began=js.time))
            continue
        job = JobAttribution(
            job_id=job_id, job_kind=je.job_kind, rdd_name=js.rdd_name,
            began=js.time, ended=je.time, succeeded=je.succeeded,
            recovery=_job_in_recovery(js, report.recovery_epochs))

        cursor = js.time

        def emit(label: str, until: float, detail: str = "") -> None:
            nonlocal cursor
            if until > cursor:
                job.segments.append(Segment(label, cursor, until, detail))
                cursor = until

        for sub in sorted(stages_by_job.get(job_id, []),
                          key=lambda e: (e.time, e.stage_id)):
            comp = stage_done.get((sub.stage_id, sub.attempt))
            if comp is None:
                # truncated log / crashed stage: everything from here to
                # the job end is unexplained
                emit("other", je.time,
                     f"stage {sub.stage_id} never completed")
                break
            emit("driver", sub.time, "scheduling")
            ct = _critical_task(tasks_by_stage.get(
                (sub.stage_id, sub.attempt), []))
            if ct is None:
                emit("other", comp.time,
                     f"stage {sub.stage_id}: no task events")
                continue
            job.critical_tasks.append(CriticalTask(
                stage_id=ct.stage_id, stage_attempt=ct.stage_attempt,
                partition=ct.partition, attempt=ct.attempt,
                executor_id=ct.executor_id, began=ct.began, ended=ct.time))
            m = ct.metrics
            emit("driver", ct.began - m.slot_wait, "task dispatch")
            emit("queueing", ct.began, "executor slot wait")
            # inside the task window: cumulative boundaries from the
            # metrics decomposition, final boundary pinned to the task's
            # true end so the partition stays exact
            overhead = max(ct.duration - m.fetch_wait - m.compute_time
                           - m.serialize_time - m.output_wait, 0.0)
            chunks: List[Tuple[str, float, str]] = [
                ("overhead", overhead, "task launch"),
                ("wire", max(m.fetch_wait - m.deserialize_time, 0.0),
                 "shuffle fetch"),
                ("serde", m.deserialize_time, "shuffle deserialize"),
                ("compute", m.compute_time, ""),
                ("serde", m.serialize_time, "result serialize"),
            ]
            merge = None
            if sub.stage_kind == "reduced_result":
                window = [e for e in imm_by_key.get(
                              (job_id, ct.stage_id, ct.executor_id), [])
                          if ct.began - _EPS <= e.time <= ct.time + _EPS]
                if window:
                    merge = max(window, key=lambda e: e.time)
            if merge is not None:
                ship = max(m.output_wait - merge.lock_wait
                           - merge.merge_time, 0.0)
                chunks += [
                    ("queueing", merge.lock_wait, "imm lock wait"),
                    ("compute", merge.merge_time, "imm merge"),
                    ("wire", ship, "result ship"),
                ]
            else:
                chunks.append(("wire", m.output_wait, "result ship"))
            boundary = ct.began
            for i, (label, dur, detail) in enumerate(chunks):
                boundary = (ct.time if i == len(chunks) - 1
                            else min(boundary + max(dur, 0.0), ct.time))
                emit(label, boundary, detail)
            emit("driver", comp.time, "stage wrap-up")
        emit("driver", je.time, "result handling")
        report.jobs.append(job)

    for cid in sorted((chosen.keys() | completed.keys()) - reused_collectives):
        report.collectives.append(_attribute_collective(
            chosen.get(cid), completed.get(cid), ring_hops, streams))
    return report


def _attribute_collective(decision: Optional[TraceEvent],
                          comp: Optional[TraceEvent],
                          ring_hops: List[TraceEvent],
                          streams: List[TraceEvent]
                          ) -> CollectiveAttribution:
    """One collective's row: decision fields, measured window, hop blame."""
    span = decision.span_id if decision is not None else -1
    if span >= 0:
        hops = [h for h in ring_hops if h.parent_span_id == span]
        bound_streams = [s for s in streams if s.parent_span_id == span]
    elif comp is not None:  # detached log: bind by the collective's window
        hops = [h for h in ring_hops
                if comp.began - _EPS <= h.began
                and h.time <= comp.time + _EPS]
        bound_streams = [s for s in streams
                         if comp.began - _EPS <= s.began
                         and s.time <= comp.time + _EPS]
    else:
        hops, bound_streams = [], []
    named = comp if comp is not None else decision
    attribution = CollectiveAttribution(
        collective_id=named.collective_id, algorithm=named.algorithm,
        parallelism=named.parallelism,
        began=comp.began if comp is not None else decision.time,
        ended=named.time,
        seconds=comp.seconds if comp is not None else None,
        hop_count=len(hops), chunk_streams=len(bound_streams))
    if decision is not None:
        attribution.ranks = decision.ranks
        attribution.hosts = decision.hosts
        attribution.value_bytes = decision.value_bytes
    if hops:
        intervals = sorted((h.began, h.time) for h in hops)
        busy = 0.0
        lo, hi = intervals[0]
        for b, e in intervals[1:]:
            if b > hi:
                busy += hi - lo
                lo, hi = b, e
            else:
                hi = max(hi, e)
        busy += hi - lo
        attribution.overlapped_hop_seconds = max(
            sum(h.time - h.began for h in hops) - busy, 0.0)
        slowest = max(hops, key=lambda h: (h.time - h.began, h.hop))
        attribution.slowest_hop = HopBlame(
            channel=slowest.channel, rank=slowest.rank,
            executor_id=slowest.executor_id, hop=slowest.hop,
            began=slowest.began, ended=slowest.time,
            merge_time=slowest.merge_time)
        chains: Dict[Tuple[str, int], Tuple[float, float]] = {}
        for h in hops:
            key = (h.channel, h.rank)
            total, merge = chains.get(key, (0.0, 0.0))
            chains[key] = (total + (h.time - h.began),
                           merge + h.merge_time)
        (channel, rank), (total, merge) = max(
            chains.items(), key=lambda kv: kv[1][0])
        attribution.chain_channel = channel
        attribution.chain_rank = rank
        attribution.chain_seconds = total
        attribution.chain_merge_seconds = merge
    return attribution
