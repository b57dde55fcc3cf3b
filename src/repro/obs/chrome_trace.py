"""Chrome ``trace_event`` / Perfetto export.

Lays a recorded event stream out on the virtual-time axis in the JSON
format Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
natively:

* one *process* per executor, with one *thread lane per core* — task
  spans are packed greedily onto core lanes (an executor never runs more
  concurrent tasks than cores, so the packing is exact) — plus extra
  lanes for ring-hop spans (one per ring channel) and IMM merges,
* a *driver* process with a job lane and a phase lane
  (``agg.compute`` / ``ml.driver`` / ... spans from the stopwatch);
  injected faults and recovery actions appear as instant markers on the
  job lane, and each detection->recovered epoch is a span on a
  dedicated *recovery* lane.

Critical paths are drawn as flow arrows (``ph: s/t/f``): each job's
slice chains through its stages' critical tasks, and each collective's
slice points at its slowest hop — load the trace in Perfetto and the
arrows show exactly which task/hop the makespan waited on.

Timestamps are microseconds of virtual time (the ``trace_event`` unit).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .critical_path import attribute_critical_path
from .events import TraceEvent

__all__ = ["chrome_trace", "write_chrome_trace"]

#: process ids of the fixed lanes
DRIVER_PID = 1
#: executors start here: pid = EXECUTOR_PID_BASE + executor_id
EXECUTOR_PID_BASE = 10
#: driver-process thread id of the recovery-epoch lane
RECOVERY_TID = 40

_US = 1e6  # seconds -> trace_event microseconds


def _meta(pid: int, name: str, tid: Optional[int] = None,
          sort_index: Optional[int] = None) -> List[Dict[str, Any]]:
    out: List[Dict[str, Any]] = []
    if tid is None:
        out.append({"ph": "M", "pid": pid, "name": "process_name",
                    "args": {"name": name}})
        if sort_index is not None:
            out.append({"ph": "M", "pid": pid, "name": "process_sort_index",
                        "args": {"sort_index": sort_index}})
    else:
        out.append({"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                    "args": {"name": name}})
        if sort_index is not None:
            out.append({"ph": "M", "pid": pid, "tid": tid,
                        "name": "thread_sort_index",
                        "args": {"sort_index": sort_index}})
    return out


def _span(pid: int, tid: int, name: str, began: float, ended: float,
          cat: str, args: Dict[str, Any]) -> Dict[str, Any]:
    return {"ph": "X", "pid": pid, "tid": tid, "name": name, "cat": cat,
            "ts": began * _US, "dur": max(ended - began, 0.0) * _US,
            "args": args}


def _pack_lanes(spans: Sequence[Tuple[float, float, Any]]
                ) -> List[Tuple[int, Any]]:
    """Greedy interval packing: assign each (begin, end, item) a lane.

    Spans are laid onto the first lane whose previous span has ended;
    processing in begin order makes the packing deterministic and uses
    the minimum number of lanes.
    """
    lane_free: List[float] = []  # lane index -> time it frees up
    out: List[Tuple[int, Any]] = []
    eps = 1e-12
    for began, ended, item in sorted(spans, key=lambda s: (s[0], s[1])):
        for lane, free_at in enumerate(lane_free):
            if free_at <= began + eps:
                lane_free[lane] = ended
                out.append((lane, item))
                break
        else:
            lane_free.append(ended)
            out.append((len(lane_free) - 1, item))
    return out


def chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, Any]:
    """Convert a trace-event stream into a Chrome trace JSON object."""
    events = list(events)
    out: List[Dict[str, Any]] = []
    out += _meta(DRIVER_PID, "driver", sort_index=0)
    out += _meta(DRIVER_PID, "jobs", tid=0, sort_index=0)
    out += _meta(DRIVER_PID, "phases", tid=1, sort_index=1)
    collective_tid = 50  # after however many packed phase lanes appear

    # ------------------------------------------------------------- driver
    job_starts: Dict[int, TraceEvent] = {}
    for event in events:
        if event.kind == "job_start":
            job_starts[event.job_id] = event
        elif event.kind == "job_end":
            start = job_starts.pop(event.job_id, None)
            began = start.time if start is not None else event.time
            name = (start.rdd_name if start is not None
                    else f"job {event.job_id}")
            out.append(_span(
                DRIVER_PID, 0, f"{event.job_kind}:{name}", began,
                event.time, "job",
                {"job_id": event.job_id, "succeeded": event.succeeded}))
    phase_spans = [(e.began, e.time, e) for e in events
                   if e.kind == "phase"]
    for lane, e in _pack_lanes(phase_spans):
        out.append(_span(DRIVER_PID, 1 + lane, e.key, e.began, e.time,
                         "phase", {"seconds": e.seconds}))

    # -------------------------------------------------------- collectives
    # One driver lane for the collective engine: each dispatched
    # reduce+gather is a span (measured seconds), its dispatch an instant
    # marker with the placement it saw.
    collective_events = [e for e in events if e.kind in
                         ("collective_chosen", "collective_completed")]
    if collective_events:
        out += _meta(DRIVER_PID, "collectives", tid=collective_tid,
                     sort_index=collective_tid)
        for event in collective_events:
            if event.kind == "collective_completed":
                out.append(_span(
                    DRIVER_PID, collective_tid,
                    f"{event.algorithm} P{event.parallelism}",
                    event.began, event.time, "collective",
                    {"collective_id": event.collective_id,
                     "seconds": event.seconds}))
            else:
                out.append({"ph": "i", "pid": DRIVER_PID,
                            "tid": collective_tid, "s": "t",
                            "name": (f"chose {event.algorithm} "
                                     f"P{event.parallelism}"),
                            "cat": "collective", "ts": event.time * _US,
                            "args": {"collective_id": event.collective_id,
                                     "ranks": event.ranks,
                                     "hosts": event.hosts,
                                     "value_bytes": event.value_bytes,
                                     "segment_bytes": event.segment_bytes}})

    # ------------------------------------------------------------- faults
    # Instant markers on the job lane: faults pin where the controller
    # struck, recovery actions show the engine's answer on the same axis.
    # Each recovery epoch of the critical-path report also gets a span on
    # its own driver lane so recovery cost is visible as a width, not just
    # ticks.
    report = attribute_critical_path(events)
    if report.recovery_epochs:
        out += _meta(DRIVER_PID, "recovery", tid=RECOVERY_TID,
                     sort_index=RECOVERY_TID)
        for epoch in report.recovery_epochs:
            out.append(_span(
                DRIVER_PID, RECOVERY_TID,
                (f"recovery (job {epoch.job_id})" if epoch.recovered
                 else "recovery (unrecovered)"),
                epoch.began, epoch.ended, "recovery",
                {"job_id": epoch.job_id, "actions": epoch.actions,
                 "seconds": epoch.seconds}))
    for event in events:
        if event.kind == "fault_injected":
            out.append({"ph": "i", "pid": DRIVER_PID, "tid": 0, "s": "g",
                        "name": f"fault:{event.fault}", "cat": "fault",
                        "ts": event.time * _US,
                        "args": {"target": event.target,
                                 "trigger": event.trigger,
                                 "detail": event.detail}})
        elif event.kind == "recovery_action":
            out.append({"ph": "i", "pid": DRIVER_PID, "tid": 0, "s": "t",
                        "name": f"recovery:{event.action}", "cat": "fault",
                        "ts": event.time * _US,
                        "args": {"site": event.site, "job_id": event.job_id,
                                 "attempt": event.attempt,
                                 "detail": event.detail}})

    # ---------------------------------------------------------- executors
    task_ends = [e for e in events if e.kind == "task_end"]
    ring_hops = [e for e in events if e.kind == "ring_hop"]
    imm_merges = [e for e in events if e.kind == "imm_merge"]
    executor_ids = sorted(
        {e.executor_id for e in task_ends}
        | {e.executor_id for e in ring_hops}
        | {e.executor_id for e in imm_merges})
    # slice coordinates, for the critical-path flow arrows below
    task_coords: Dict[Tuple[int, int, int, int], Tuple[int, int]] = {}
    hop_coords: Dict[Tuple[int, str, int, float], Tuple[int, int]] = {}
    for executor_id in executor_ids:
        pid = EXECUTOR_PID_BASE + executor_id
        host = next((e.host for e in task_ends
                     if e.executor_id == executor_id), "")
        label = (f"executor {executor_id} ({host})" if host
                 else f"executor {executor_id}")
        out += _meta(pid, label, sort_index=EXECUTOR_PID_BASE + executor_id)

        mine = [(e.began, e.time, e) for e in task_ends
                if e.executor_id == executor_id]
        core_lanes = 0
        for lane, e in _pack_lanes(mine):
            core_lanes = max(core_lanes, lane + 1)
            task_coords[(e.stage_id, e.stage_attempt, e.partition,
                         e.attempt)] = (pid, lane)
            out.append(_span(
                pid, lane, f"s{e.stage_id}.p{e.partition}", e.began,
                e.time, "task",
                {"status": e.status, "locality": e.metrics.locality,
                 "compute": e.metrics.compute_time,
                 "fetch_wait": e.metrics.fetch_wait,
                 "result_bytes": e.metrics.result_bytes}))
        for lane in range(core_lanes):
            out += _meta(pid, f"core {lane}", tid=lane, sort_index=lane)

        channels = sorted({e.channel for e in ring_hops
                           if e.executor_id == executor_id})
        for offset, channel in enumerate(channels):
            tid = 100 + offset
            out += _meta(pid, f"ring {channel}", tid=tid,
                         sort_index=tid)
            for e in ring_hops:
                if e.executor_id == executor_id and e.channel == channel:
                    hop_coords[(e.executor_id, e.channel, e.hop,
                                e.began)] = (pid, tid)
                    out.append(_span(
                        pid, tid, f"hop {e.hop}", e.began, e.time, "ring",
                        {"rank": e.rank, "send_bytes": e.send_bytes,
                         "recv_bytes": e.recv_bytes,
                         "merge_time": e.merge_time}))
        merges = [e for e in imm_merges if e.executor_id == executor_id]
        if merges:
            out += _meta(pid, "imm", tid=200, sort_index=200)
            for e in merges:
                out.append(_span(
                    pid, 200, f"merge {e.merge_index}",
                    e.time - e.merge_time - e.lock_wait, e.time, "imm",
                    {"job_id": e.job_id, "stage_id": e.stage_id,
                     "nbytes": e.nbytes, "lock_wait": e.lock_wait}))

    # ------------------------------------------------ critical-path flows
    # Flow arrows chain each job slice through its stages' critical
    # tasks, and each collective slice to its slowest hop, so "what did
    # the makespan wait on" reads straight off the Perfetto timeline.
    flow_id = 1

    def _flow(ph: str, fid: int, pid: int, tid: int, ts: float,
              name: str) -> Dict[str, Any]:
        rec = {"ph": ph, "id": fid, "pid": pid, "tid": tid,
               "ts": ts * _US, "name": name, "cat": "critical_path"}
        if ph == "f":
            rec["bp"] = "e"
        return rec

    for job in report.jobs:
        stops = [(DRIVER_PID, 0, job.began)]
        for ct in job.critical_tasks:
            coords = task_coords.get((ct.stage_id, ct.stage_attempt,
                                      ct.partition, ct.attempt))
            if coords is not None:
                stops.append((coords[0], coords[1], ct.began))
        if len(stops) < 2:
            continue
        name = f"critical path job {job.job_id}"
        for index, (pid, tid, ts) in enumerate(stops):
            ph = ("s" if index == 0
                  else "f" if index == len(stops) - 1 else "t")
            out.append(_flow(ph, flow_id, pid, tid, ts, name))
        flow_id += 1
    if collective_events:
        for coll in report.collectives:
            hop = coll.slowest_hop
            if hop is None or coll.seconds is None:
                continue  # no hop, or no completed slice to start from
            coords = hop_coords.get((hop.executor_id, hop.channel,
                                     hop.hop, hop.began))
            if coords is None:
                continue
            name = f"slowest hop collective {coll.collective_id}"
            out.append(_flow("s", flow_id, DRIVER_PID, collective_tid,
                             coll.began, name))
            out.append(_flow("f", flow_id, coords[0], coords[1],
                             hop.began, name))
            flow_id += 1

    return {"traceEvents": out, "displayTimeUnit": "ms",
            "otherData": {"source": "repro.obs", "time_unit": "virtual"}}


def write_chrome_trace(events: Iterable[TraceEvent],
                       target: Union[str, Path]) -> int:
    """Write a Chrome trace JSON file; returns the trace-event count."""
    trace = chrome_trace(events)
    Path(target).write_text(json.dumps(trace), encoding="utf-8")
    return len(trace["traceEvents"])
