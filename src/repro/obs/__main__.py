"""CLI: analyze a recorded event log.

``python -m repro.obs events.jsonl`` prints the log's one report
(:func:`~repro.obs.critical_path.attribute_critical_path`): the
Figure-2-style time decomposition (phase and stage buckets), the per-job
critical-path attribution, one table of collectives (placement,
measured window, slowest hop and chain) and the fault report
(injected faults with detection latency, recovery actions, recovery
epochs and their cost).
``--chrome trace.json`` additionally writes a Perfetto-loadable Chrome
trace, and ``--metrics`` dumps the labeled metrics store fed from the
log (``--window`` sets its bucket width).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Dict, List, Optional, Sequence

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


def render_report(report: CriticalPathReport) -> str:
    """Render the one report as the CLI's text: each number once."""
    from ..bench.harness import format_seconds, format_table

    out: List[str] = []
    out.append(f"trace span: {format_seconds(report.total_time)} "
               f"virtual ({report.job_count} jobs, "
               f"{report.stage_count} stages, "
               f"{report.task_count} tasks)")
    if report.task_failures:
        out.append(f"task failures: {report.task_failures}")
    if report.unfinished_stages:
        out.append(f"unfinished stages: {report.unfinished_stages} "
                   "(submitted but never completed)")
    for note in report.notes:
        out.append(f"note: {note}")

    def shares(totals: Dict[str, float], column: str, title: str) -> None:
        total = sum(totals.values())
        rows = [[_BUCKET_LABELS.get(key, key), format_seconds(seconds),
                 f"{100.0 * seconds / total:.1f}%"]
                for key, seconds in sorted(totals.items(),
                                           key=lambda kv: -kv[1])]
        out.append("")
        out.append(format_table([column, "time", "share"], rows,
                                title=title))

    if report.phases:
        shares(report.phases, "phase", "Phase decomposition (stopwatch)")
    if report.stage_totals:
        shares(report.stage_totals, "bucket",
               "Stage decomposition (Figure 2 buckets)")
        out.append(f"aggregation share of stage time: "
                   f"{100.0 * report.aggregation_share:.1f}%")

    if report.message_count:
        out.append("")
        out.append(f"messages: {report.message_count} "
                   f"({report.message_bytes / 1e6:.2f} MB), "
                   f"ring hops: {report.ring_hop_count}, "
                   f"imm merges: {report.imm_merge_count}")

    sparse = report.sparse
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

    out.append("")
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
    else:
        out.append("critical path: no finished jobs in the log")
    for job in report.unfinished:
        out.append(f"unfinished job {job.job_id} ({job.job_kind}, "
                   f"{job.rdd_name}) started {job.began:.4f}s: {job.note}")

    if report.collectives:
        rows = []
        for coll in report.collectives:
            hop, decided = coll.slowest_hop, coll.ranks > 0
            rows.append([
                coll.collective_id, coll.algorithm,
                f"P={coll.parallelism}",
                f"{coll.ranks}x{coll.hosts}h" if decided else "-",
                f"{coll.value_bytes / 1e6:.1f}MB" if decided else "-",
                (format_seconds(coll.seconds)
                 if coll.seconds is not None else "-"),
                coll.hop_count,
                (f"{hop.channel} hop {hop.hop} rank {hop.rank} "
                 f"({format_seconds(hop.seconds)})" if hop else "-"),
                (f"{coll.chain_channel} rank {coll.chain_rank}: "
                 f"{format_seconds(coll.chain_merge_seconds)} merge + "
                 f"{format_seconds(coll.chain_wire_seconds)} wire"
                 if coll.chain_rank >= 0 else "-"),
            ])
        out.append("")
        out.append(format_table(
            ["id", "algorithm", "chan", "ranks", "value", "measured",
             "hops", "slowest hop", "slowest chain"],
            rows, title="Collectives (decision, measured window, blame)"))

    faults = report.faults
    if faults.observed:
        out.append("")
    if faults.injected:
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
    # recovery cost is the epochs', printed once per job
    cost: Dict[int, float] = {}
    for epoch in report.recovery_epochs:
        if epoch.recovered:
            cost[epoch.job_id] = cost.get(epoch.job_id, 0.0) + epoch.seconds
            state = "recovered"
        else:
            state = f"UNRECOVERED, {format_seconds(epoch.seconds)}"
        out.append(f"recovery epoch {epoch.began:.4f}s -> "
                   f"{epoch.ended:.4f}s ({state}, {epoch.actions} actions)")
    if cost:
        out.append("recovery virtual-time cost: " + ", ".join(
            f"job {job_id}: {format_seconds(seconds)}"
            for job_id, seconds in sorted(cost.items())))
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
    return "\n".join(out)


def _number(low: float, high: float, what: str) -> Callable[[str], float]:
    """An argparse type: a float in ``(low, high]``, else a usage error."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (low < value <= high and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
        return value
    return parse


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze a repro.obs JSON-lines event log.")
    parser.add_argument("events", help="path to the events.jsonl file")
    parser.add_argument("--chrome", metavar="TRACE.json", default=None,
                        help="also write a Chrome/Perfetto trace here")
    parser.add_argument("--metrics", action="store_true",
                        help="also print the metrics-store summary")
    parser.add_argument(
        "--window", default=0.01,
        type=_number(0.0, math.inf, "use a window width > 0 virtual seconds"),
        help="metrics window width in virtual seconds (default: 0.01)")
    args = parser.parse_args(argv)

    try:
        events = load_events(args.events)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.events}: {exc}", file=sys.stderr)
        return 2

    print(render_report(attribute_critical_path(events)))

    if args.metrics:
        print()
        print(MetricsListener(window=args.window).replay(events).summary())

    if args.chrome:
        count = write_chrome_trace(events, args.chrome)
        print(f"\nwrote {count} trace events to {args.chrome}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
