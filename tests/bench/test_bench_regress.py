"""The benchmark regression gate (tools/bench_regress.py).

Covers the metric registry mechanics — wildcard paths, direction-aware
tolerances, configuration gating — and pins that every *committed*
BENCH_*.json artifact passes its own invariants, which is exactly what
the ``obs-smoke`` CI job runs — and that scripts, artifacts, registry
entries and CI steps stay in one-to-one correspondence.
"""

import json
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

from bench_regress import (  # noqa: E402
    REGISTRY,
    BenchSpec,
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
    spec = BenchSpec(metrics=(Metric("x", "lower", rel_tol=0.20),))
    base, curr = {"x": 1.0}, {"x": 1.5}
    out = outcome_of(lambda b, c, o: compare_reports(b, c, spec, o),
                     base, curr)
    assert out.failures == 1
    curr_ok = {"x": 1.15}
    out = outcome_of(lambda b, c, o: compare_reports(b, c, spec, o),
                     base, curr_ok)
    assert out.failures == 0 and out.checks == 1


def test_compare_skips_same_config_metrics_across_configs():
    spec = BenchSpec(metrics=(Metric("x", "lower"),))
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


def test_missing_invariant_path_fails():
    spec = REGISTRY["overlap"]
    out = outcome_of(lambda r, o: check_invariants(r, spec, o),
                     {"benchmark": "overlap"})
    assert out.failures >= 1


# ----------------------------------------------------------------- CLI modes
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


def test_script_artifact_spec_and_ci_step_go_together():
    """Each measurement script outside the ledger owns exactly one root
    artifact, one REGISTRY entry and at least one CI step, and nothing of
    those four exists without the script: none can be orphaned from its
    gate, and a deleted script takes its gate along."""
    scripts = {p.stem for p in (REPO / "benchmarks").glob("*.py")
               if not p.name.startswith("test_") and p.name != "conftest.py"}
    artifacts = [json.loads(p.read_text())["benchmark"]
                 for p in REPO.glob("BENCH_*.json")]
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    ci_steps = set(re.findall(
        r"benchmarks/(\w+)\.py",
        "\n".join(line for line in ci.splitlines()
                  if not line.lstrip().startswith("#"))))
    assert sorted(artifacts) == sorted(scripts)      # one each, no more
    assert set(REGISTRY) == scripts
    assert ci_steps == scripts


def overlap_report(pipelined_seconds=1.0):
    return {"benchmark": "overlap", "all_gates_passed": True,
            "cells": {"bic4": {"bit_identical": True,
                               "auto_picked_pipelined": True,
                               "reduction": 0.3,
                               "pipelined_seconds": pipelined_seconds}}}


def written(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_compare_mode_detects_overhead_regression(tmp_path, capsys):
    assert main(["--baseline", written(tmp_path, "a.json", overlap_report()),
                 "--current", written(tmp_path, "b.json",
                                      overlap_report(2.0))]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_compare_mode_passes_on_identical_artifact(tmp_path, capsys):
    assert main(["--baseline", written(tmp_path, "a.json", overlap_report()),
                 "--current", written(tmp_path, "b.json",
                                      overlap_report())]) == 0
    assert "PASS" in capsys.readouterr().out


def test_compare_mode_rejects_mismatched_benchmarks(tmp_path):
    with pytest.raises(SystemExit):
        main(["--baseline", written(tmp_path, "a.json", overlap_report()),
              "--current", written(tmp_path, "b.json",
                                   {"benchmark": "sparse_agg"})])


def test_check_mode_fails_on_an_artifact_nothing_gates(tmp_path, capsys):
    """No REGISTRY entry means no check ever reads the artifact; a [skip]
    here would let it sit at the root ungated."""
    orphan = written(tmp_path, "BENCH_orphan.json", {"benchmark": "orphan"})
    assert main(["--check", orphan]) == 1
    assert "not in REGISTRY" in capsys.readouterr().out


def test_unregistered_benchmark_is_not_gated(tmp_path):
    a = written(tmp_path, "a.json", {"benchmark": "brand_new", "x": 1.0})
    b = written(tmp_path, "b.json", {"benchmark": "brand_new", "x": 99.0})
    assert main(["--baseline", a, "--current", b]) == 0
