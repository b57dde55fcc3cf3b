#!/usr/bin/env python
"""Benchmark regression gate: diff BENCH_*.json artifacts, fail on drift.

Two modes::

    python tools/bench_regress.py --check [BENCH_*.json ...]
        Validate the *invariants* of committed artifacts (bit-identity
        flags, acceptance flags, tuner tolerance). With no files, checks
        every BENCH_*.json at the repo root. An artifact whose
        ``benchmark`` name has no registry entry fails: nothing gates it.

    python tools/bench_regress.py --baseline BENCH_x.json --current new.json
        Compare a fresh run against the committed baseline and exit
        non-zero if any registered metric regressed by more than its
        tolerance (default 20% relative, plus the metric's own absolute
        slack where it has one).

The per-benchmark metric registry below chooses *what* is worth gating:
virtual-time (simulated) metrics are deterministic, so they get the bare
relative tolerance; what measures the host rather than the model is noisy
on shared CI runners and is gated, where it still is, with an absolute
slack on top. Metrics are skipped when the two artifacts were produced
with different benchmark configurations (e.g. a ``--smoke`` run against a
full-size baseline): the invariants still hold there, the numbers do not
compare.

Exit codes: 0 = clean, 1 = regression or invariant failure, 2 = cannot
read/parse an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: default relative tolerance: a metric may be this fraction worse than
#: the baseline before it counts as a regression (the ">20%" CI rule)
DEFAULT_REL_TOL = 0.20


@dataclass(frozen=True)
class Metric:
    """One gated quantity inside a benchmark artifact."""

    path: str                      # dotted path, "*" matches any key
    direction: str                 # "lower" or "higher" is better
    rel_tol: float = DEFAULT_REL_TOL
    abs_slack: float = 0.0         # extra allowance in the metric's units

    def worse_by(self, baseline: float, current: float) -> float:
        """How far ``current`` is beyond ``baseline`` in the bad direction."""
        return (current - baseline if self.direction == "lower"
                else baseline - current)

    def allowance(self, baseline: float) -> float:
        return self.rel_tol * abs(baseline) + self.abs_slack


@dataclass(frozen=True)
class BenchSpec:
    """Registry entry: what to check for one ``benchmark`` name."""

    invariants: Tuple[Tuple[str, Any], ...] = ()
    metrics: Tuple[Metric, ...] = ()


REGISTRY: Dict[str, BenchSpec] = {
    "sparse_agg": BenchSpec(
        invariants=(
            ("configs.*.bit_identical_weights", True),
            ("acceptance.sparse_saves_bytes", True),
            ("acceptance.all_bit_identical", True),
            ("columnar_fold.bit_identical", True),
            ("acceptance.columnar_fold_speedup_ge_2", True),
        ),
        metrics=(
            Metric("configs.*.wire_reduction", "higher"),
            Metric("configs.*.adaptive.agg_time", "lower"),
        ),
    ),
    "collective_matrix": BenchSpec(
        invariants=(("all_within_tolerance", True),),
        metrics=(
            Metric("cells.*.tuner_gap_vs_best", "lower", abs_slack=0.02),
            Metric("cells.*.empirical_best.seconds", "lower"),
        ),
    ),
    "overlap": BenchSpec(
        invariants=(
            ("all_gates_passed", True),
            ("cells.*.bit_identical", True),
            ("cells.*.auto_picked_pipelined", True),
        ),
        metrics=(
            Metric("cells.*.reduction", "higher"),
            Metric("cells.*.pipelined_seconds", "lower"),
        ),
    ),
    # Wall-clock, not events/sec: a change that schedules fewer kernel
    # events for the same result lowers events/sec and is no regression.
    "host_perf": BenchSpec(
        invariants=(
            ("parity_ok", True),
            ("pools.*.parity_ok", True),
        ),
        metrics=(
            Metric("pools.*.wall_seconds", "lower", rel_tol=0.25),
        ),
    ),
    "service": BenchSpec(
        invariants=(
            ("identity.all_match", True),
            ("acceptance.throughput_ok", True),
            ("acceptance.fairness_ok", True),
            ("acceptance.scale_ok", True),
            ("utilisation.idle_executors", 0),
        ),
        metrics=(
            Metric("throughput.speedup_vs_fifo", "higher"),
            Metric("latency.p99", "lower"),
            Metric("latency.p50", "lower"),
            Metric("fairness.weighted_max_min_ratio", "lower",
                   abs_slack=0.2),
        ),
    ),
}


# --------------------------------------------------------------- plumbing
def expand(report: dict, path: str) -> Iterator[Tuple[str, Any]]:
    """Yield ``(concrete_path, value)`` for a dotted path; ``*`` fans out."""
    def walk(node: Any, parts: Sequence[str], prefix: List[str]):
        if not parts:
            yield ".".join(prefix), node
            return
        head, rest = parts[0], parts[1:]
        if not isinstance(node, dict):
            return
        keys = sorted(node) if head == "*" else (
            [head] if head in node else [])
        for key in keys:
            yield from walk(node[key], rest, prefix + [key])

    yield from walk(report, path.split("."), [])


def same_configuration(baseline: dict, current: dict) -> bool:
    """True when two artifacts ran the same benchmark configuration.

    ``smoke`` and ``repeats`` are presentation knobs, not workload shape,
    except that a smoke run *does* change shape whenever any other key
    differs — which the remaining keys capture.
    """
    def essence(report: dict) -> dict:
        config = dict(report.get("configuration", {}))
        config.pop("repeats", None)
        config.pop("smoke", None)
        return config

    return essence(baseline) == essence(current)


@dataclass
class Outcome:
    """Accumulated check results with printable lines."""

    lines: List[str] = field(default_factory=list)
    failures: int = 0
    checks: int = 0

    def record(self, ok: bool, line: str, skipped: bool = False) -> None:
        if skipped:
            self.lines.append(f"  [skip] {line}")
            return
        self.checks += 1
        if ok:
            self.lines.append(f"  [ ok ] {line}")
        else:
            self.failures += 1
            self.lines.append(f"  [FAIL] {line}")


def load_report(path: Path) -> dict:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    if not isinstance(report, dict) or "benchmark" not in report:
        raise SystemExit(f"error: {path} is not a benchmark artifact "
                         "(no 'benchmark' key)")
    return report


def check_invariants(report: dict, spec: BenchSpec, out: Outcome) -> None:
    for path, expected in spec.invariants:
        matches = list(expand(report, path))
        if not matches:
            out.record(False, f"{path}: missing from artifact")
            continue
        for concrete, value in matches:
            out.record(value == expected,
                       f"{concrete} == {expected!r} (got {value!r})")


def compare_reports(baseline: dict, current: dict, spec: BenchSpec,
                    out: Outcome) -> None:
    config_matches = same_configuration(baseline, current)
    for metric in spec.metrics:
        if not config_matches:
            out.record(True, f"{metric.path}: configurations differ",
                       skipped=True)
            continue
        base_values = dict(expand(baseline, metric.path))
        curr_values = dict(expand(current, metric.path))
        shared = sorted(set(base_values) & set(curr_values))
        if not shared:
            out.record(True, f"{metric.path}: no shared entries",
                       skipped=True)
            continue
        for concrete in shared:
            base, curr = base_values[concrete], curr_values[concrete]
            if not isinstance(base, (int, float)) or \
                    not isinstance(curr, (int, float)):
                out.record(False, f"{concrete}: non-numeric "
                                  f"({base!r} vs {curr!r})")
                continue
            worse = metric.worse_by(float(base), float(curr))
            allowed = metric.allowance(float(base))
            arrow = "->"
            detail = (f"{concrete} ({metric.direction} is better): "
                      f"{base:.6g} {arrow} {curr:.6g} "
                      f"(worse by {max(worse, 0.0):.6g}, "
                      f"allowed {allowed:.6g})")
            out.record(worse <= allowed, detail)


# -------------------------------------------------------------------- CLI
def run_check(paths: Sequence[Path]) -> int:
    status = 0
    for path in paths:
        report = load_report(path)
        name = report["benchmark"]
        spec = REGISTRY.get(name)
        out = Outcome()
        print(f"{path} ({name}):")
        if spec is None:
            print("  [FAIL] benchmark not in REGISTRY: an artifact nothing "
                  "gates")
            status = 1
            continue
        check_invariants(report, spec, out)
        print("\n".join(out.lines) or "  [skip] nothing registered")
        if out.failures:
            status = 1
    return status


def run_compare(baseline_path: Path, current_path: Path) -> int:
    baseline = load_report(baseline_path)
    current = load_report(current_path)
    if baseline["benchmark"] != current["benchmark"]:
        raise SystemExit(
            f"error: artifacts disagree on benchmark name: "
            f"{baseline['benchmark']!r} vs {current['benchmark']!r}")
    spec = REGISTRY.get(baseline["benchmark"])
    if spec is None:
        print(f"{baseline['benchmark']}: not in registry, nothing to gate")
        return 0
    out = Outcome()
    print(f"{baseline['benchmark']}: {baseline_path} (baseline) "
          f"vs {current_path} (current)")
    check_invariants(current, spec, out)
    compare_reports(baseline, current, spec, out)
    print("\n".join(out.lines))
    verdict = ("PASS" if not out.failures
               else f"FAIL ({out.failures} of {out.checks} checks)")
    print(f"result: {verdict}")
    return 1 if out.failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", type=Path,
                        help="artifacts for --check mode (default: "
                             "all BENCH_*.json at the repo root)")
    parser.add_argument("--check", action="store_true",
                        help="validate artifact invariants only")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed artifact to diff against")
    parser.add_argument("--current", type=Path, default=None,
                        help="freshly produced artifact to gate")
    args = parser.parse_args(argv)

    if args.check:
        if args.baseline or args.current:
            parser.error("--check takes artifact files, not "
                         "--baseline/--current")
        paths = args.files or sorted(REPO_ROOT.glob("BENCH_*.json"))
        if not paths:
            parser.error("no BENCH_*.json artifacts found")
        return run_check(paths)
    if args.baseline is None or args.current is None:
        parser.error("need --check, or both --baseline and --current")
    if args.files:
        parser.error("positional files only apply to --check mode")
    return run_compare(args.baseline, args.current)


if __name__ == "__main__":
    sys.exit(main())
