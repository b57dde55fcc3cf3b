"""Tests of the ledger itself. Run explicitly::

    python -m pytest benchmarks/ledger -q

(tier-1 ``testpaths`` stays ``tests/``; the smoke test spawns ten short
subprocesses and takes about a minute).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import ledger_layers  # noqa: E402
import ledger_metrics  # noqa: E402
import ledger_stats  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_file():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    return json.loads(raw)


# ------------------------------------------------------------------- schema
def test_benchmark_json_is_the_catalogue(benchmark_file):
    assert benchmark_file == ledger_metrics.benchmark_json()


def test_benchmark_json_meets_the_driver_contract(benchmark_file):
    b = benchmark_file
    assert set(b) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert b["paths"] == ["benchmarks/ledger"]
    assert len(b["command"]) <= 32
    for word in b["command"]:
        assert len(word) <= 200 and not word.startswith("/")
        assert ".." not in Path(word).parts
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    assert 2 <= len(b["workloads"]) <= 8
    assert 1 <= len(b["end_to_end"]) <= 16
    assert 1 <= len(b["per_layer"]) <= 128
    # 4 + 22 runs per workload, set-up included, inside 3420 s
    runs = 4 + 22 * len(b["workloads"])
    assert runs * (b["run_seconds"] + 10) <= 3420

    names = []
    for workload in b["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in b["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in b["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in b["end_to_end"] + b["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used twice"

    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])


def test_every_metric_says_where_it_applies_and_what_it_moves():
    workloads = {name for name, _why in ledger_metrics.WORKLOADS}
    end_to_end = {m.name for m in ledger_metrics.END_TO_END}
    for metric in ledger_metrics.END_TO_END:
        assert metric.what, metric.name
    for metric in ledger_metrics.PER_LAYER:
        assert metric.moves in end_to_end | {"none"}, metric.name
        assert set(metric.on) <= workloads, metric.name
    host = [m.name for m in ledger_metrics.PER_LAYER
            if m.name.startswith("host.")]
    assert host == [f"host.{layer}.self_s"
                    for layer in ledger_metrics.HOST_LAYERS + ("total",)]


# --------------------------------------------------------------- statistics
@pytest.mark.parametrize("n, expected", [
    (4, None), (40, None), (41, 0.75), (100, 0.75), (101, 0.90),
    (104, 0.90), (200, 0.90), (201, 0.95), (312, 0.95), (1000, 0.95),
    (1001, 0.99), (2000, 0.99)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert ledger_stats.tail_percentile(n) == expected
    if expected is not None:
        ordered = list(range(n))
        tail = ledger_stats.percentile(ordered, expected)
        assert sum(v > tail for v in ordered) >= ledger_stats.MIN_BEYOND


def test_median_and_tail():
    values = list(range(1, 105))  # 104 samples -> p90
    median, tail, label = ledger_stats.median_and_tail(values)
    assert (median, label) == (52.5, "p90")
    assert tail == sorted(values)[int(0.9 * 104)]
    assert sum(v > tail for v in values) >= ledger_stats.MIN_BEYOND
    assert ledger_stats.median_and_tail([3.0, 1.0, 2.0, 9.0]) == (
        2.5, 9.0, "max")


def test_quiet_seconds_takes_each_segment_at_its_fastest():
    passes = [[1.0, 2.0, 0.5], [1.5, 1.0, 0.25], [0.75, 3.0, 0.75]]
    assert ledger_stats.quiet_seconds(passes) == 0.75 + 1.0 + 0.25
    assert ledger_stats.quiet_seconds([[2.0, 1.0]]) == 3.0
    with pytest.raises(ValueError):
        ledger_stats.quiet_seconds([[1.0, 2.0], [1.0]])


def test_verdict_rule():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert ledger_stats.verdict(steady, steady, "lower", 0.1)[1] == "unchanged"
    assert ledger_stats.verdict(
        steady, [1.2, 1.21, 1.19, 1.2], "lower", 0.1)[1] == "regressed"
    assert ledger_stats.verdict(
        steady, [0.8, 0.81, 0.79, 0.8], "lower", 0.1)[1] == "improved"
    assert ledger_stats.verdict(
        steady, [0.8, 0.81, 0.79, 0.8], "higher", 0.1)[1] == "regressed"
    noisy = [1.0, 1.3, 0.8, 1.1]
    assert ledger_stats.verdict(steady, noisy, "lower", 0.1)[1] == "unresolved"
    ratio, _word = ledger_stats.verdict([2.0], [3.0], "lower", 0.1)
    assert ratio == 1.5


# ------------------------------------------------------------------ layers
def test_classifier_covers_every_source_file():
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert len(files) > 50
    unmapped = [str(f) for f in files
                if ledger_layers.classify(str(f)) is None]
    assert not unmapped
    layers = {ledger_layers.classify(str(f)) for f in files}
    assert layers <= set(ledger_metrics.HOST_LAYERS)
    assert ledger_layers.classify("~") == "numpy_builtin"
    assert ledger_layers.classify("/usr/lib/python3/heapq.py") == "other"
    assert ledger_layers.classify("/x/repro/newpkg/mod.py") is None


def test_host_partition_sums_to_total():
    from repro import AggregationSpec, ClusterConfig, SparkerSession

    result, layers, top = ledger_layers.profile_call(
        lambda: SparkerSession(ClusterConfig.laptop(2)).run(
            "LR-A", aggregation="split", iterations=1,
            spec=AggregationSpec()))
    assert result.end_to_end > 0 and top
    parts = sum(layers[name] for name in ledger_metrics.HOST_LAYERS)
    assert layers["total"] > 0
    assert abs(parts - layers["total"]) <= 1e-9 * layers["total"]
    assert layers["sim"] > 0 and layers["cluster_flows"] > 0


def test_span_self_time_excludes_children():
    spans = ledger_layers.Spans(enabled=True)
    with spans.span("outer"):
        with spans.span("inner:a"):
            pass
        with spans.span("inner:b"):
            pass
    own = spans.self_seconds()
    total = spans.rows[0]["end"] - spans.rows[0]["start"]
    assert set(own) == {"outer", "inner"}
    assert abs(own["outer"] + own["inner"] - total) < 1e-9
    assert [r["parent"] for r in spans.rows] == [-1, 0, 0]
    assert spans.top_level_seconds() == [total]
    assert ledger_layers.Spans().rows == []


# ------------------------------------------------------------------- smoke
def test_smoke_completes(tmp_path):
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json", str(out)],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:]
    ledger = json.loads(out.read_text())
    assert set(ledger["workloads"]) == {
        name for name, _why in ledger_metrics.WORKLOADS}
    assert {"nproc", "python", "numpy"} <= set(ledger["host"])
    for data in ledger["workloads"].values():
        assert set(data["end_to_end"]) == {
            m.name for m in ledger_metrics.END_TO_END}
        assert set(data["per_layer"]) == {
            m.name for m in ledger_metrics.PER_LAYER}
        assert data["attempted"] > 0 and data["failed"] == 0
        for cell in data["end_to_end"].values():
            assert cell["median"] > 0
    # a ledger compares clean against itself
    same = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(out),
         str(out)], stdout=subprocess.PIPE, text=True, timeout=60)
    assert same.returncode == 0, same.stdout
    assert "40 rows, 0 regressed or unresolved" in same.stdout
