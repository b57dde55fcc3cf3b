"""CLI: analyze a recorded event log.

``python -m repro.obs events.jsonl`` prints the Figure-2-style time
decomposition (phase and stage buckets), straggler tasks (slower than a
factor of their stage's median), the fault report (injected faults with
detection latency, recovery actions, per-job recovery cost), and
driver-NIC saturation windows.
``--chrome trace.json`` additionally writes a Perfetto-loadable Chrome
trace, and ``--metrics`` dumps the labeled metrics store fed from the
log (``--window`` sets its bucket width).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .analysis import TraceAnalysis, analyze_events
from .chrome_trace import write_chrome_trace
from .critical_path import (
    SEGMENT_LABELS,
    CriticalPathReport,
    attribute_critical_path,
)
from .log import load_events
from .metrics import MetricsListener

_BUCKET_LABELS = {
    "agg_compute": "Aggregation / compute",
    "agg_reduce": "Aggregation / reduce",
    "other": "Other stages",
}


def render_analysis(analysis: TraceAnalysis) -> str:
    """Render a :class:`TraceAnalysis` as the CLI's text report."""
    from ..bench.harness import format_seconds, format_table

    out: List[str] = []
    out.append(f"trace span: {format_seconds(analysis.total_time)} "
               f"virtual ({analysis.job_count} jobs, "
               f"{analysis.stage_count} stages, "
               f"{analysis.task_count} tasks)")
    if analysis.task_failures:
        out.append(f"task failures: {analysis.task_failures}")
    if analysis.unfinished_stages:
        out.append(f"unfinished stages: {analysis.unfinished_stages} "
                   "(submitted but never completed)")

    if analysis.phases:
        total = sum(analysis.phases.values())
        rows = [[key, format_seconds(seconds),
                 f"{100.0 * seconds / total:.1f}%"]
                for key, seconds in sorted(analysis.phases.items(),
                                           key=lambda kv: -kv[1])]
        out.append("")
        out.append(format_table(["phase", "time", "share"], rows,
                                title="Phase decomposition (stopwatch)"))

    if analysis.stage_totals:
        total = sum(analysis.stage_totals.values())
        rows = [[_BUCKET_LABELS.get(bucket, bucket),
                 format_seconds(seconds),
                 f"{100.0 * seconds / total:.1f}%"]
                for bucket, seconds in sorted(analysis.stage_totals.items(),
                                              key=lambda kv: -kv[1])]
        out.append("")
        out.append(format_table(
            ["bucket", "time", "share"], rows,
            title="Stage decomposition (Figure 2 buckets)"))
        out.append(f"aggregation share of stage time: "
                   f"{100.0 * analysis.aggregation_share:.1f}%")

    if analysis.message_count:
        out.append("")
        out.append(f"messages: {analysis.message_count} "
                   f"({analysis.message_bytes / 1e6:.2f} MB), "
                   f"ring hops: {analysis.ring_hop_count}, "
                   f"imm merges: {analysis.imm_merge_count}")

    sparse = analysis.sparse
    if sparse.observed:
        out.append("")
        out.append(
            f"sparse aggregation: {sparse.sparse_hops} sparse / "
            f"{sparse.dense_hops} dense ring hops, "
            f"{sparse.sparse_imm_merges} sparse imm merges; "
            f"wire {sparse.wire_send_bytes / 1e6:.2f} MB vs dense "
            f"{sparse.dense_send_bytes / 1e6:.2f} MB "
            f"(saved {sparse.bytes_saved / 1e6:.2f} MB, "
            f"{100.0 * sparse.savings_ratio:.1f}%)")
        if sparse.switches:
            rows = [[s.site, f"{s.time:.4f}s", s.channel, s.hop,
                     f"{s.from_repr}->{s.to_repr}",
                     f"{100.0 * s.density:.1f}%",
                     f"{s.wire_bytes / 1e3:.1f}kB",
                     f"{s.dense_bytes / 1e3:.1f}kB"]
                    for s in sparse.switches]
            out.append(format_table(
                ["site", "time", "chan", "hop", "switch", "density",
                 "wire", "dense"],
                rows, title="Representation switch points"))

    tuner = analysis.tuner
    if tuner.observed:
        out.append("")
        rows = []
        for decision, completion, error in tuner.rows:
            rows.append([
                decision.collective_id, decision.algorithm,
                f"P={decision.parallelism}", decision.source,
                f"{decision.ranks}x{decision.hosts}h",
                f"{decision.value_bytes / 1e6:.1f}MB",
                (f"{decision.predicted:.4f}s"
                 if decision.source == "auto" else "-"),
                (f"{completion.seconds:.4f}s"
                 if completion is not None else "-"),
                (f"{100.0 * error:+.1f}%" if error is not None else "-"),
            ])
        out.append(format_table(
            ["id", "algorithm", "chan", "source", "ranks", "value",
             "predicted", "measured", "error"],
            rows, title="Collective tuner decisions"))
        if tuner.tuned_count:
            out.append(
                f"tuned decisions: {tuner.tuned_count} of "
                f"{len(tuner.chosen)}; mean |model error| "
                f"{100.0 * tuner.mean_abs_error:.1f}% over "
                f"{len(tuner.estimates)} candidate estimates")

    out.append("")
    if analysis.stragglers:
        rows = [[f"s{s.stage_id}.{s.stage_attempt}", s.partition,
                 s.executor_id, format_seconds(s.duration),
                 format_seconds(s.stage_median), f"{s.slowdown:.2f}x"]
                for s in analysis.stragglers]
        out.append(format_table(
            ["stage", "part", "executor", "duration", "median", "slowdown"],
            rows, title="Stragglers (duration > 2x stage median)"))
    else:
        out.append("stragglers: none")

    faults = analysis.faults
    if faults.observed:
        out.append("")
        latency = {id(f): lat for f, lat in faults.detection_latency}
        rows = [[f"{f.time:.4f}s", f.fault, f.trigger, f.target,
                 (f"{latency[id(f)]:.4f}s" if id(f) in latency else "-"),
                 f.detail]
                for f in faults.injected]
        out.append(format_table(
            ["time", "fault", "trigger", "target", "detect", "detail"],
            rows, title="Injected faults"))
        if faults.actions:
            rows = [[f"{a.time:.4f}s", a.action, a.site,
                     (a.job_id if a.job_id >= 0 else "-"),
                     (a.executor_id if a.executor_id >= 0 else "-"),
                     a.attempt, a.detail]
                    for a in faults.actions]
            out.append(format_table(
                ["time", "action", "site", "job", "executor", "attempt",
                 "detail"],
                rows, title="Recovery actions"))
        if faults.recovery_by_job:
            cost = ", ".join(
                f"job {job_id}: {format_seconds(seconds)}"
                for job_id, seconds in sorted(faults.recovery_by_job.items()))
            out.append(f"recovery virtual-time cost: {cost}")
        for down in faults.downgrades:
            out.append(
                f"collective downgraded at {down.time:.4f}s: "
                f"{down.requested} -> {down.actual} ({down.reason})"
                + (f" [{down.detail}]" if down.detail else ""))
        if faults.residual_losses:
            out.append(
                f"error-feedback residuals lost: "
                f"{sum(r.num_residuals for r in faults.residual_losses)} "
                f"buffer(s) on "
                f"{len(faults.residual_losses)} dead executor(s), "
                f"total L2 norm {faults.residual_norm_lost:.6g}")
        if faults.speculation:
            launched = sum(1 for s in faults.speculation
                           if s.action == "launched")
            won = sum(1 for s in faults.speculation
                      if s.action == "speculative_won")
            out.append(f"speculative attempts: {launched} launched, "
                       f"{won} won the commit race")

    out.append("")
    if analysis.saturation:
        rows = [[w.hostname, w.direction, f"{w.start:.4f}s",
                 f"{w.end:.4f}s", format_seconds(w.duration),
                 f"{100.0 * w.peak_utilization:.0f}%"]
                for w in analysis.saturation]
        out.append(format_table(
            ["node", "dir", "start", "end", "duration", "peak"],
            rows, title="Driver-NIC saturation windows"))
    else:
        out.append("driver-NIC saturation: none observed "
                   "(no samples at/above threshold)")
    return "\n".join(out)


def render_critical_path(report: CriticalPathReport) -> str:
    """Render a critical-path report as the CLI's attribution tables."""
    from ..bench.harness import format_seconds, format_table

    out: List[str] = []
    if report.jobs:
        rows = []
        for job in report.jobs:
            totals = job.totals()
            makespan = job.makespan or 1.0
            rows.append(
                [job.job_id, job.job_kind,
                 format_seconds(job.makespan)]
                + [f"{100.0 * totals.get(label, 0.0) / makespan:.1f}%"
                   for label in SEGMENT_LABELS]
                + ["yes" if job.recovery else ""])
        out.append(format_table(
            ["job", "kind", "makespan"] + list(SEGMENT_LABELS) + ["recov"],
            rows, title="Critical path (per-job makespan attribution)"))
        blames = [(job.job_id, ct) for job in report.jobs
                  for ct in job.critical_tasks if ct.blame]
        for job_id, ct in blames:
            out.append(f"  job {job_id} s{ct.stage_id}.{ct.stage_attempt}"
                       f" straggler blame: {ct.blame}")
    if report.unfinished:
        for job in report.unfinished:
            out.append(f"unfinished job {job.job_id} ({job.job_kind}, "
                       f"{job.rdd_name}) started {job.began:.4f}s: "
                       f"{job.note}")
    if report.collectives:
        rows = []
        for coll in report.collectives:
            hop = coll.slowest_hop
            rows.append([
                coll.collective_id, coll.algorithm,
                f"P={coll.parallelism}", format_seconds(coll.seconds),
                coll.hop_count,
                (f"{hop.channel} hop {hop.hop} rank {hop.rank} "
                 f"({format_seconds(hop.seconds)})" if hop else "-"),
                (f"{coll.chain_channel} rank {coll.chain_rank}: "
                 f"{format_seconds(coll.chain_merge_seconds)} merge + "
                 f"{format_seconds(coll.chain_wire_seconds)} wire"
                 if coll.chain_rank >= 0 else "-"),
                (format_seconds(coll.recovery_seconds)
                 if coll.recovery_seconds else "-"),
            ])
        out.append(format_table(
            ["id", "algorithm", "chan", "seconds", "hops", "slowest hop",
             "slowest chain", "recovery"],
            rows, title="Collective attribution"))
    if report.recovery_epochs:
        for epoch in report.recovery_epochs:
            state = "recovered" if epoch.recovered else "UNRECOVERED"
            out.append(f"recovery epoch {epoch.began:.4f}s -> "
                       f"{epoch.ended:.4f}s ({state}, "
                       f"{epoch.actions} actions, "
                       f"{format_seconds(epoch.seconds)})")
    if not out:
        out.append("critical path: no finished jobs in the log")
    return "\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze a repro.obs JSON-lines event log.")
    parser.add_argument("events", help="path to the events.jsonl file")
    parser.add_argument("--chrome", metavar="TRACE.json", default=None,
                        help="also write a Chrome/Perfetto trace here")
    parser.add_argument("--metrics", action="store_true",
                        help="also print the metrics-store summary")
    parser.add_argument("--window", type=float, default=0.01,
                        help="metrics window width in virtual seconds "
                             "(default: 0.01)")
    parser.add_argument("--straggler-factor", type=float, default=2.0,
                        help="flag tasks slower than this multiple of "
                             "their stage median (default: 2.0)")
    parser.add_argument("--saturation-threshold", type=float, default=0.9,
                        help="NIC utilization that counts as saturated "
                             "(default: 0.9)")
    args = parser.parse_args(argv)

    try:
        events = load_events(args.events)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.events}: {exc}", file=sys.stderr)
        return 2

    analysis = analyze_events(
        events, straggler_factor=args.straggler_factor,
        saturation_threshold=args.saturation_threshold)
    print(render_analysis(analysis))
    print()
    print(render_critical_path(attribute_critical_path(
        events, straggler_factor=args.straggler_factor)))

    if args.metrics:
        print()
        print(MetricsListener(window=args.window).replay(events).summary())

    if args.chrome:
        count = write_chrome_trace(events, args.chrome)
        print(f"\nwrote {count} trace events to {args.chrome}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
