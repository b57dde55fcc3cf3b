"""The repo's one perf ledger: five workloads, both clocks, every layer.

Two ways in.

**One run of one workload** (what the driver of ``BENCHMARK.json`` calls,
from the root of a checkout)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

**The whole ledger** (no ``--workload``, or several)::

    python3 benchmarks/ledger/run.py [--repeats 3] [--smoke] [--json OUT]

runs each workload in a fresh subprocess, ``--repeats`` times interleaved
round-robin, then one traced run each, and prints every metric with its
median, min, max and sample count. Exits non-zero on any failed check.

    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --repin

``src/`` is put on ``sys.path`` from this file's location; no
``PYTHONPATH`` is needed. README.md in this directory has the glossary.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PINS_PATH = HERE / "pins.json"
SCHEMA = "sparker-ledger/1"
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

# host_pool off, no collective override: the engine reads SPARKER_* from
# the environment and a stray one would change what is measured
for key in [k for k in os.environ if k.startswith("SPARKER_")]:
    del os.environ[key]
# one thread: numpy's BLAS would otherwise start a worker per core, and a
# run would measure how the host schedules them; it also sums in another
# order, so the weight norms in the outputs depended on the core count
# (set-up probes and the ledger's child runs inherit this)
for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[key] = "1"

from ledger_metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    benchmark_json,
)
from ledger_stats import (  # noqa: E402
    compare,
    median_and_tail,
    quiet_seconds,
    summarize,
)

WORKLOAD_NAMES = [name for name, _why in WORKLOADS]
DEFAULT_SEED = 2026
#: fresh processes whose set-up time is sampled beside this one's
SETUP_PROBES = 2


def host_fingerprint() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine()}


def load_pins() -> dict:
    try:
        pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    pins["fingerprint_matches"] = pins.get("fingerprint") == host_fingerprint()
    return pins


# ------------------------------------------------------------ one workload
def pin_allocator() -> bool:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    Both adapt to the sizes freed so far, so whether the top of the heap
    goes back to the kernel between two passes (and is page-faulted in
    again by the next) depends on what was freed last: the SVM-K12 cell
    of ``train_tree`` took 0.09 or 0.16 s from pass to pass, and a pass
    0.50 s at best. Pinned, arrays up to 32 MB live on the heap, the heap
    is never trimmed, and the same pass takes 0.39 s every time the host
    is quiet. False where the C library has no ``mallopt``.
    """
    import ctypes

    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(m_mmap_threshold, 32 << 20)
                and mallopt(m_trim_threshold, 2 ** 31 - 1))


def set_up(name: str, seed: int, smoke: bool):
    """Imports, input generation, surrogate datasets, one warm-up cell.

    Returns ``(workload, checks, seconds since T0)``.
    """
    from ledger_layers import Checks
    from ledger_workloads import WORKLOAD_CLASSES

    from repro import AggregationSpec, ClusterConfig, SparkerSession

    checks = Checks()
    workload = WORKLOAD_CLASSES[name](seed, smoke, checks, load_pins())
    for aggregation in ("tree", "split"):
        SparkerSession(ClusterConfig.laptop(2)).run(
            "LR-A", aggregation=aggregation, iterations=2,
            spec=AggregationSpec())
    workload.warm()
    return workload, checks, time.perf_counter() - T0


def self_command(name: str, seed: int, smoke: bool, *extra: str) -> list:
    """This script again, in a fresh process, on one workload."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), *(["--smoke"] if smoke else []), *extra]


def probe_setup(name: str, seed: int, smoke: bool) -> float:
    """Set-up seconds of a fresh process (``--setup-probe``)."""
    done = subprocess.run(self_command(name, seed, smoke, "--setup-probe"),
                          stdout=subprocess.PIPE, timeout=170, check=True,
                          text=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed_pass(workload, recorder=None, reduced=False):
    """One pass from a collected heap: ``(result, seconds per segment)``.

    The segments are the pass's top-level spans (cell, plan, phase,
    slice) and, last, whatever ran between them.
    """
    from ledger_layers import Spans

    # how much garbage earlier passes left must not decide when the
    # collector runs in this one, nor how high the peak RSS goes
    gc.collect()
    spans = Spans(enabled=True)
    t = time.perf_counter()
    result = workload.run_pass(spans, recorder, reduced)
    wall = time.perf_counter() - t
    segments = spans.top_level_seconds()
    return result, segments + [wall - sum(segments)]


def measure_end_to_end(workload, checks, seconds: float):
    """Passes until ``seconds`` are used: ``(first result, segment seconds
    per pass, the same of the recorded segment)``. Every pass must
    reproduce the first exactly."""
    from ledger_layers import Recorder

    passes, recorded = [], []
    first = plain_reduced = None
    began = time.perf_counter()
    while True:
        result, segments = timed_pass(workload)
        passes.append(segments)
        if first is None:
            first = result
        else:
            checks.check(result.fingerprint() == first.fingerprint(),
                         f"pass {len(passes)}: virtual time or outputs "
                         f"differ from pass 1")
        if workload.records:
            if plain_reduced is None:
                plain_reduced, _ = timed_pass(workload, reduced=True)
            with_recorder, segments = timed_pass(workload, Recorder(),
                                                 reduced=True)
            recorded.append(segments)
            checks.check(
                with_recorder.fingerprint() == plain_reduced.fingerprint(),
                f"pass {len(passes)}: recording perturbed the reduced "
                f"segment")
        used = time.perf_counter() - began
        if used + 0.5 * used / len(passes) >= seconds:
            return first, passes, recorded or passes


def run_end_to_end(args) -> dict:
    workload, checks, own_setup = set_up(args.workload, args.seed, args.smoke)
    first, passes, recorded = measure_end_to_end(workload, checks,
                                                 args.seconds)
    workload.finish(first)
    setups = [own_setup] + [
        probe_setup(args.workload, args.seed, args.smoke)
        for _ in range(0 if args.smoke else SETUP_PROBES)]
    unit_p50, unit_tail, tail_label = median_and_tail(first.units)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": quiet_seconds(passes),
        "wall_recorded_s": quiet_seconds(recorded),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virt_s": first.virt_s,
        "virt_agg_s": first.virt_agg_s,
        "virt_unit_p50_s": unit_p50,
        "virt_unit_tail_s": unit_tail,
    }
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} of "
          f"{len(passes[0])} segments, setup samples={len(setups)} "
          f"units={len(first.units)} (tail = {tail_label}); glibc "
          f"thresholds {'pinned' if args.pinned else 'not pinned'}")
    print("# pass walls: " + " ".join(f"{sum(p):.3f}" for p in passes)
          + " | recorded: " + " ".join(f"{sum(p):.3f}" for p in recorded)
          + " | setups: " + " ".join(f"{w:.3f}" for w in setups))
    print(f"# wall_s/count.sim_events = "
          f"{values['wall_s'] / max(first.sim_events, 1) * 1e6:.3f} us "
          f"over {first.sim_events} kernel events")
    return finish_run(args, checks, values, END_TO_END)


def run_traced(args) -> dict:
    """One plain pass, one traced pass (spans + cProfile + recorder), the
    microbenchmarks. End-to-end metrics never come from here."""
    import ledger_micro
    from ledger_layers import Recorder, Spans, profile_call, reduce_events
    from ledger_metrics import HOST_LAYERS

    workload, checks, _setup = set_up(args.workload, args.seed, args.smoke)
    # first, on a small heap: after the traced pass the process holds its
    # events and profiles, and every collection (and thread start) in a
    # microbenchmark would pay for walking them
    micro = ledger_micro.run_all(0.1 if args.smoke else 1.0)
    t = time.perf_counter()
    plain = workload.run_pass(Spans())
    plain_wall = time.perf_counter() - t

    spans, recorder = Spans(enabled=True), Recorder()
    t = time.perf_counter()
    with spans.span(f"workload:{args.workload}"):
        traced, host, top = profile_call(
            lambda: workload.run_pass(spans, recorder))
    traced_wall = time.perf_counter() - t
    if args.out_trace:
        spans.dump(args.out_trace)
    checks.check(traced.fingerprint() == plain.fingerprint(),
                 "traced pass: virtual time or outputs differ from untraced")
    workload.finish(traced)

    cp, counts, makespans = reduce_events(recorder)
    checks.check(
        abs(sum(host[layer] for layer in HOST_LAYERS) - host["total"])
        <= 1e-9 * host["total"], "host partition does not sum to its total")
    checks.check(abs(sum(cp.values()) - makespans) <= 1e-9 * max(makespans, 1),
                 "critical-path partition does not sum to the job makespans")

    values = {m.name: 0.0 for m in PER_LAYER}
    values.update({f"host.{layer}.self_s": s for layer, s in host.items()})
    values.update({f"virt.cp.{label}_s": s for label, s in cp.items()})
    values.update({f"count.{key}": n for key, n in counts.items()})
    values["count.sim_events"] = traced.sim_events
    values.update(traced.layer)
    values["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    values.update(micro)
    unknown = sorted(set(values) - {m.name for m in PER_LAYER})
    if unknown:
        raise KeyError(f"not in the catalogue: {unknown}")

    print(f"# {args.workload} seed={args.seed}: plain pass "
          f"{plain_wall:.3f}s, traced pass {traced_wall:.3f}s; "
          f"{counts['obs_events']} obs events, "
          f"{len(spans.rows)} harness spans")
    for label, seconds in top:
        print(f"#   {seconds:8.3f}s  {label}")
    return finish_run(args, checks, values, PER_LAYER)


def finish_run(args, checks, values: dict, catalogue) -> dict:
    """Print every metric by name, then the driver's one-line result."""
    metrics = {}
    for metric in catalogue:
        value = float(values[metric.name])
        metrics[metric.name] = {"value": value, "unit": metric.unit}
        print(f"{metric.name:48s} {value:.9g} {metric.unit}")
    if args.workload.startswith("train"):
        print("# dataset surrogates are fixed by repro.data.registry and "
              "seed-free; the seed draws the platform's NIC bandwidth")
    if args.workload == "service_mix":
        print("# open loop on the virtual clock: generator lateness is 0 "
              "by construction")
    print(f"# checks: {checks.attempted} attempted, {checks.failed} failed, "
          f"{checks.pins_skipped} pin checks skipped (host fingerprint)")
    for label in checks.failures:
        print(f"# FAILED: {label}")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    print(json.dumps(result))
    return result


# -------------------------------------------------------------- the ledger
def child_run(name: str, args, trace: int) -> dict:
    """One workload run in a fresh subprocess; its last-line result."""
    command = self_command(name, args.seed, args.smoke, "--seconds",
                           str(args.seconds), "--trace", str(trace))
    if trace and args.out_trace:
        command += ["--out-trace", f"{args.out_trace}.{name}.json"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{name} --trace {trace} exited "
                           f"{done.returncode}:\n{done.stdout[-2000:]}")
    for line in lines[:-1]:
        if line.startswith("# FAILED") or line.startswith("#   "):
            print(f"  [{name}] {line[2:]}")
    return json.loads(lines[-1])


def run_ledger(args) -> int:
    names = args.workloads or WORKLOAD_NAMES
    ledger = {
        "schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "repeats": args.repeats,
        "host": dict(host_fingerprint(), nproc=os.cpu_count()),
        "workloads": {name: {"end_to_end": {}, "per_layer": {},
                             "attempted": 0, "failed": 0}
                      for name in names},
    }

    def run(name: str, trace: int) -> dict:
        result = child_run(name, args, trace)
        ledger["workloads"][name]["attempted"] += result["attempted"]
        ledger["workloads"][name]["failed"] += result["failed"]
        return result["metrics"]

    began = time.perf_counter()
    if not args.traced_only:
        samples = {name: {m.name: [] for m in END_TO_END} for name in names}
        for repeat in range(args.repeats):  # interleaved round-robin
            for name in names:
                print(f"[{repeat + 1}/{args.repeats}] {name}", flush=True)
                for metric, cell in run(name, trace=0).items():
                    samples[name][metric].append(cell["value"])
        for name in names:
            for metric in END_TO_END:
                ledger["workloads"][name]["end_to_end"][metric.name] = dict(
                    summarize(samples[name][metric.name]), unit=metric.unit,
                    values=samples[name][metric.name])
    for name in names:
        print(f"[traced] {name}", flush=True)
        ledger["workloads"][name]["per_layer"] = run(name, trace=1)
    ledger["total_seconds"] = time.perf_counter() - began

    print_ledger(ledger)
    if args.json:
        Path(args.json).write_text(json.dumps(ledger, indent=1) + "\n",
                                   encoding="utf-8")
        print(f"wrote {args.json}")
    failed = sum(w["failed"] for w in ledger["workloads"].values())
    return 1 if failed else 0


def print_ledger(ledger: dict) -> None:
    host = ledger["host"]
    print(f"\nhost: nproc={host['nproc']} python={host['python']} "
          f"numpy={host['numpy']} {host['machine']}; seed={ledger['seed']} "
          f"seconds={ledger['seconds']} smoke={ledger['smoke']}")
    for name, data in ledger["workloads"].items():
        print(f"\n== {name}: {data['attempted']} checks attempted, "
              f"{data['failed']} failed (failed_ops_frac "
              f"{data['failed'] / max(data['attempted'], 1):.6f})")
        for metric, s in data["end_to_end"].items():
            print(f"  {metric:46s} median {s['median']:.6g} {s['unit']}  "
                  f"[min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']}, "
                  f"spread {s['spread']:.2%}]")
        for metric, cell in data["per_layer"].items():
            print(f"  {metric:46s} {cell['value']:.6g} {cell['unit']}  [n=1]")
    virt = {name: data["end_to_end"].get("virt_s", {}).get("median")
            for name, data in ledger["workloads"].items()}
    if virt.get("train_tree") and virt.get("train_split"):
        print(f"\nderived: virt_s(train_tree) / virt_s(train_split) = "
              f"{virt['train_tree'] / virt['train_split']:.3f}x "
              f"(base {virt['train_split']:.4f} s; the paper's end-to-end "
              f"speedup on these cells)")
    print(f"total {ledger.get('total_seconds', 0.0):.0f} s")


# ------------------------------------------------------------------ compare
def run_compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    rows = compare(a, b, END_TO_END)
    print(f"base = {path_a}, new = {path_b}; medians, ratio = new / base")
    print(f"{'workload':18s} {'metric':18s} {'base':>12s} {'new':>12s} "
          f"{'ratio':>8s} {'bound':>6s} {'spread b/n':>14s}  verdict")
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:18s} "
              f"{row['base_median']:12.6g} {row['new_median']:12.6g} "
              f"{row['ratio']:8.4f} {row['bound']:6.0%} "
              f"{row['base_spread']:6.1%}/{row['new_spread']:6.1%}  "
              f"{row['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    print(f"{len(rows)} rows, {len(bad)} regressed or unresolved")
    return 1 if bad else 0


# -------------------------------------------------------------------- repin
def run_repin() -> int:
    """Regenerate pins.json on this host, on the nominal platform."""
    from ledger_workloads import (
        TRAIN_CELLS,
        TRAIN_SMOKE_CELLS,
        cell_key,
        host_perf_cells,
        weights_l2,
        weights_sha,
    )

    from repro import AggregationSpec, ClusterConfig, SparkerSession

    def run_cell(aggregation, cell):
        preset, nodes, workload, iterations = cell
        result = SparkerSession(getattr(ClusterConfig, preset)(nodes)).run(
            workload, aggregation=aggregation, iterations=iterations,
            spec=AggregationSpec())
        return {"weights_sha256": weights_sha(result.final_weights),
                "weights_l2": weights_l2(result.final_weights),
                "final_loss": result.final_loss,
                "end_to_end": result.end_to_end}

    cells = {cell_key(agg, cell): run_cell(agg, cell)
             for cell in TRAIN_CELLS + TRAIN_SMOKE_CELLS
             for agg in ("split", "tree")}
    crosscheck = {"source": "BENCH_host_perf.json", "compared": 0,
                  "differences": []}
    try:
        rows = json.loads((ROOT / "BENCH_host_perf.json").read_text(
            encoding="utf-8"))["serial"]["rows"]
    except (OSError, ValueError, KeyError):
        rows = []
    committed = {(r["aggregation"], r["nodes"], r["workload"]): r
                 for r in rows}
    for agg, cell in host_perf_cells():
        ours = run_cell(agg, cell)
        cells[cell_key(agg, cell)] = ours
        theirs = committed.get((agg, cell[1], cell[2]))
        if theirs is None:
            continue
        crosscheck["compared"] += 1
        for field in ("weights_sha256", "end_to_end"):
            if ours[field] != theirs[field]:
                crosscheck["differences"].append({
                    "cell": cell_key(agg, cell), "field": field,
                    "ledger": ours[field], "committed": theirs[field]})
    pins = {"fingerprint": host_fingerprint(), "cells": cells,
            "host_perf_crosscheck": crosscheck}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {PINS_PATH}: {len(cells)} cells; cross-check against "
          f"BENCH_host_perf.json compared {crosscheck['compared']} cells, "
          f"{len(crosscheck['differences'])} differences")
    for diff in crosscheck["differences"]:
        print(f"  {diff}")
    return 0


# ---------------------------------------------------------------------- CLI
def parse(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", dest="workloads",
                        choices=WORKLOAD_NAMES,
                        help="one: a single in-process run; none or "
                             "several: the ledger over those workloads")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"seconds one run measures "
                             f"(default {RUN_SECONDS}; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single run: 0 = end-to-end metrics, "
                             "1 = per-layer metrics")
    parser.add_argument("--repeats", type=int, default=None,
                        help="ledger: end-to-end runs per workload "
                             "(default 3; 1 with --smoke)")
    parser.add_argument("--traced", action="store_true", dest="traced_only",
                        help="ledger: only the traced run of each workload")
    parser.add_argument("--micro", action="store_true",
                        help="only the microbenchmarks, in this process")
    parser.add_argument("--smoke", action="store_true",
                        help="cut every workload to a few seconds; schema "
                             "and checks still exercised")
    parser.add_argument("--json", metavar="OUT",
                        help="ledger: also write the result here")
    parser.add_argument("--out-trace", metavar="OUT",
                        help="traced run: write the harness spans here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--repin", action="store_true",
                        help="regenerate pins.json on this host")
    parser.add_argument("--emit-benchmark-json", action="store_true",
                        help="print what the root BENCHMARK.json must hold")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(RUN_SECONDS)
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 3
    return args


def main(argv=None) -> int:
    args = parse(argv)
    if args.compare:
        return run_compare(*args.compare)
    if args.emit_benchmark_json:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no src/repro under {ROOT}: the ledger measures "
                 f"the checkout it sits in")
    if args.repin:
        return run_repin()
    if args.micro:
        import ledger_micro
        for name, value in ledger_micro.run_all(
                0.1 if args.smoke else 1.0).items():
            print(f"{name:48s} {value:.6g}")
        return 0
    single = args.workloads is not None and len(args.workloads) == 1
    if single and (args.trace is not None or args.setup_probe):
        args.workload = args.workloads[0]
        args.pinned = pin_allocator()
        if args.setup_probe:
            print(set_up(args.workload, args.seed, args.smoke)[2])
            return 0
        # a failed check is reported in the result line, not by the exit
        # code: the driver reads `correct` and needs the line either way
        (run_traced if args.trace else run_end_to_end)(args)
        return 0
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
