"""The benchmark regression gate (tools/bench_regress.py).

Covers the metric registry mechanics — wildcard paths, direction-aware
tolerances, configuration gating — and pins that every *committed*
BENCH_*.json artifact passes its own invariants, which is exactly what
the ``obs-smoke`` CI job runs.
"""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

from bench_regress import (  # noqa: E402
    REGISTRY,
    Metric,
    Outcome,
    check_invariants,
    compare_reports,
    expand,
    main,
    same_configuration,
)


def outcome_of(fn, *args):
    out = Outcome()
    fn(*args, out)
    return out


# ------------------------------------------------------------ path expansion
def test_expand_concrete_path():
    assert list(expand({"a": {"b": 3}}, "a.b")) == [("a.b", 3)]


def test_expand_wildcard_fans_out_sorted():
    report = {"cells": {"z": {"v": 1}, "a": {"v": 2}}}
    assert list(expand(report, "cells.*.v")) == [
        ("cells.a.v", 2), ("cells.z.v", 1)]


def test_expand_missing_path_yields_nothing():
    assert list(expand({"a": 1}, "a.b.c")) == []
    assert list(expand({}, "x")) == []


# ----------------------------------------------------------------- tolerances
def test_metric_direction_lower():
    metric = Metric("m", "lower", rel_tol=0.20)
    assert metric.worse_by(1.0, 1.1) == pytest.approx(0.1)
    assert metric.worse_by(1.0, 0.9) == pytest.approx(-0.1)
    assert metric.allowance(1.0) == pytest.approx(0.20)


def test_metric_direction_higher_with_slack():
    metric = Metric("m", "higher", rel_tol=0.10, abs_slack=0.05)
    assert metric.worse_by(1.0, 0.8) == pytest.approx(0.2)
    assert metric.allowance(2.0) == pytest.approx(0.25)


def test_compare_flags_regression_beyond_tolerance():
    spec = type(REGISTRY["obs_overhead"])(metrics=(
        Metric("x", "lower", rel_tol=0.20),))
    base, curr = {"x": 1.0}, {"x": 1.5}
    out = outcome_of(lambda b, c, o: compare_reports(b, c, spec, o),
                     base, curr)
    assert out.failures == 1
    curr_ok = {"x": 1.15}
    out = outcome_of(lambda b, c, o: compare_reports(b, c, spec, o),
                     base, curr_ok)
    assert out.failures == 0 and out.checks == 1


def test_compare_skips_same_config_metrics_across_configs():
    spec = type(REGISTRY["obs_overhead"])(metrics=(
        Metric("x", "lower", same_config=True),))
    base = {"configuration": {"nodes": 4}, "x": 1.0}
    curr = {"configuration": {"nodes": 2}, "x": 99.0}
    out = outcome_of(lambda b, c, o: compare_reports(b, c, spec, o),
                     base, curr)
    assert out.failures == 0 and out.checks == 0


def test_same_configuration_ignores_smoke_and_repeats():
    base = {"configuration": {"nodes": 4, "repeats": 15, "smoke": False}}
    curr = {"configuration": {"nodes": 4, "repeats": 3, "smoke": True}}
    assert same_configuration(base, curr)
    curr2 = {"configuration": {"nodes": 2, "repeats": 15, "smoke": False}}
    assert not same_configuration(base, curr2)


def test_invariant_failure_detected():
    spec = REGISTRY["obs_overhead"]
    report = {"benchmark": "obs_overhead", "virtual_time_identical": False,
              "overhead_vs_detached": {"event_log": 0.5,
                                       "event_log_sync": 0.4}}
    out = outcome_of(lambda r, o: check_invariants(r, spec, o), report)
    # both the zero-perturbation flag and buffering-beats-sync fail
    assert out.failures == 2


def test_missing_invariant_path_fails():
    spec = REGISTRY["fault_recovery"]
    out = outcome_of(lambda r, o: check_invariants(r, spec, o),
                     {"benchmark": "fault_recovery"})
    assert out.failures >= 1


# ----------------------------------------------------------------- CLI modes
def test_flow_alloc_gates_completions_not_event_rate():
    def report(few, many, events_per_completion=3.0):
        return {"levels": {
            key: {"completions_per_sec": rate,
                  "events_per_sec": rate * events_per_completion}
            for key, rate in (("10", few), ("1000", many))}}
    spec = REGISTRY["flow_alloc"]
    assert outcome_of(check_invariants, report(50e3, 30e3),
                      spec).failures == 0
    assert outcome_of(check_invariants, report(23e3, 0.6e3),
                      spec).failures == 1
    assert outcome_of(check_invariants, {"levels": {}}, spec).failures == 1
    base = report(50e3, 45e3)
    # The same completions a little faster from a third fewer kernel
    # events: events/sec falls by 30%, and nothing is wrong.
    leaner = outcome_of(compare_reports, base,
                        report(52e3, 47e3, events_per_completion=2.0), spec)
    assert leaner.failures == 0 and leaner.checks == 2
    # More events per completion cannot excuse fewer completions.
    assert outcome_of(compare_reports, base,
                      report(30e3, 28e3, events_per_completion=6.0),
                      spec).failures == 2


def test_host_perf_gates_wall_clock_and_parity_not_event_rate():
    def report(wall, events, parity=True):
        return {"parity_ok": parity, "pools": {"1": {
            "wall_seconds": wall, "sim_events": events,
            "events_per_sec": events / wall, "parity_ok": parity}}}
    spec = REGISTRY["host_perf"]
    base = report(3.0, 500_000)
    # Same result from 40% fewer events, a little faster: events/sec falls
    # by a third, and nothing is wrong.
    leaner = outcome_of(compare_reports, base, report(2.8, 300_000), spec)
    assert leaner.failures == 0 and leaner.checks == 1
    # The same events at a higher rate cannot excuse a slower sweep.
    assert outcome_of(compare_reports, base, report(4.0, 800_000),
                      spec).failures == 1
    assert outcome_of(check_invariants, base, spec).failures == 0
    assert outcome_of(check_invariants, report(3.0, 500_000, parity=False),
                      spec).failures == 2


def test_check_mode_passes_on_committed_artifacts(capsys):
    artifacts = sorted(REPO.glob("BENCH_*.json"))
    assert artifacts, "repo must ship benchmark artifacts"
    assert main(["--check"] + [str(p) for p in artifacts]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_compare_mode_detects_overhead_regression(tmp_path, capsys):
    baseline_path = REPO / "BENCH_fault_recovery.json"
    worse = json.loads(baseline_path.read_text())
    for scenario in worse["scenarios"].values():
        scenario["recovery_overhead_ratio"] = (
            scenario["recovery_overhead_ratio"] * 2.0 + 1.0)
    current = tmp_path / "current.json"
    current.write_text(json.dumps(worse))
    assert main(["--baseline", str(baseline_path),
                 "--current", str(current)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_compare_mode_passes_on_identical_artifact(tmp_path, capsys):
    baseline_path = REPO / "BENCH_fault_recovery.json"
    current = tmp_path / "same.json"
    current.write_text(baseline_path.read_text())
    assert main(["--baseline", str(baseline_path),
                 "--current", str(current)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_obs_overhead_wall_ratios_are_not_gated(tmp_path):
    """Ratios of two ~0.06 s timings: in the artifact as information. What
    recording costs is gated as a count (tests/obs/test_emit_cost.py)."""
    assert REGISTRY["obs_overhead"].metrics == ()
    baseline_path = REPO / "BENCH_obs_overhead.json"
    slower = json.loads(baseline_path.read_text())
    for mode in slower["overhead_vs_detached"]:
        slower["overhead_vs_detached"][mode] *= 1.5
    current = tmp_path / "slower.json"
    current.write_text(json.dumps(slower))
    assert main(["--baseline", str(baseline_path),
                 "--current", str(current)]) == 0


def test_compare_mode_rejects_mismatched_benchmarks(tmp_path):
    current = tmp_path / "other.json"
    current.write_text(json.dumps({"benchmark": "sparse_agg"}))
    with pytest.raises(SystemExit):
        main(["--baseline", str(REPO / "BENCH_obs_overhead.json"),
              "--current", str(current)])


def test_unregistered_benchmark_is_not_gated(tmp_path):
    report = {"benchmark": "brand_new", "x": 1.0}
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(report))
    b.write_text(json.dumps({"benchmark": "brand_new", "x": 99.0}))
    assert main(["--baseline", str(a), "--current", str(b)]) == 0
