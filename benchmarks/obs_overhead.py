"""Tracing-overhead benchmark: writes ``BENCH_obs_overhead.json``.

Runs one Figure-16 configuration (8 MB aggregators, 4 BIC nodes, split
aggregation) with observability detached, with a recording listener plus
NIC monitor attached, with the buffered JSON-lines event log, and with
the log forced to serialize-per-event (``buffer_events=1``, the
pre-buffering behaviour) — and compares *wall-clock* times of the
aggregation window. Virtual times must be identical in all modes (the
zero-perturbation contract). The buffered writer defers serialization
off the emit path, so its measured overhead should track the in-memory
recorder's (within a few points of that floor, vs ~3x the floor for
serialize-per-event); the deferred cost is reported separately as
``flush_seconds``.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead.py
    PYTHONPATH=src python benchmarks/obs_overhead.py --smoke --output /tmp/x.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import AggregationSpec
from repro.cluster import MB, ClusterConfig
from repro.obs import EventLogWriter, NicMonitor, RecordingListener
from repro.service import SparkerSession
from repro.serde import SizedPayload

REPEATS = 15
NBYTES = 8 * MB
NODES = 4

MODES = ("detached", "recorder", "event_log", "event_log_sync")


def run_once(mode: str, nbytes: float, nodes: int) -> dict:
    sc = SparkerSession(ClusterConfig.bic(num_nodes=nodes)).context()
    recorder = None
    monitor = None
    writer = None
    log_path = None
    if mode != "detached":
        monitor = NicMonitor(sc.cluster, sc.event_bus, interval=0.01)
        if mode == "recorder":
            recorder = RecordingListener()
            sc.event_bus.subscribe(recorder)
        else:
            log_path = Path(tempfile.mkstemp(suffix=".jsonl")[1])
            writer = EventLogWriter(
                log_path,
                buffer_events=1 if mode == "event_log_sync" else 8192)
            sc.event_bus.subscribe(writer)

    n_parts = sc.cluster.total_cores
    data = [SizedPayload(np.ones(512), sim_bytes=nbytes)
            for _ in range(n_parts)]
    rdd = sc.parallelize(data, n_parts).cache()
    rdd.count()
    zero = lambda: SizedPayload(np.zeros(512), sim_bytes=nbytes)  # noqa: E731

    began = time.perf_counter()
    rdd.split_aggregate(zero, lambda a, x: a.merge_inplace(x),
                        lambda u, i, n: u.split(i, n),
                        lambda a, b: a.merge(b),
                        SizedPayload.concat, AggregationSpec(parallelism=4))
    wall = time.perf_counter() - began

    if monitor is not None:
        monitor.stop()
    events = len(recorder.events) if recorder else (
        writer.written if writer else 0)
    flush = 0.0
    if writer is not None:
        began = time.perf_counter()
        writer.close()
        flush = time.perf_counter() - began
        log_path.unlink()
    return {"wall_seconds": wall, "flush_seconds": flush,
            "virtual_seconds": sc.now, "events": events}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration for CI (3 repeats, "
                             "2 nodes, 2 MB aggregators)")
    parser.add_argument("--output", default=None,
                        help="report path (default: repo root "
                             "BENCH_obs_overhead.json)")
    args = parser.parse_args()
    repeats = 3 if args.smoke else REPEATS
    nbytes = (2 * MB) if args.smoke else NBYTES
    nodes = 2 if args.smoke else NODES

    for mode in MODES:  # warm-up: caches, allocator, first-touch imports
        run_once(mode, nbytes, nodes)
    runs = {mode: [] for mode in MODES}
    for _ in range(repeats):  # interleave so system noise hits all modes
        for mode in MODES:
            runs[mode].append(run_once(mode, nbytes, nodes))

    virtual = {mode: {r["virtual_seconds"] for r in results}
               for mode, results in runs.items()}
    assert all(len(v) == 1 for v in virtual.values()), virtual
    assert len(set().union(*virtual.values())) == 1, virtual

    def best(mode):
        return min(r["wall_seconds"] for r in runs[mode])

    def paired_overhead(mode):
        # Modes are interleaved within each round, so the per-round
        # ratio cancels machine-load drift; the median ratio is robust
        # to the occasional slow round that best-of-N is not.
        ratios = [runs[mode][i]["wall_seconds"]
                  / runs["detached"][i]["wall_seconds"]
                  for i in range(repeats)]
        return statistics.median(ratios) - 1.0

    report = {
        "benchmark": "obs_overhead",
        "configuration": {
            "figure": "fig16", "cluster": "BIC", "nodes": nodes,
            "aggregator_bytes": nbytes, "method": "split",
            "repeats": repeats, "smoke": args.smoke,
        },
        "virtual_seconds": next(iter(virtual["detached"])),
        "modes": {
            mode: {
                "wall_seconds_best": best(mode),
                "wall_seconds_median": statistics.median(
                    r["wall_seconds"] for r in runs[mode]),
                "flush_seconds_best": min(
                    r["flush_seconds"] for r in runs[mode]),
                "events": runs[mode][0]["events"],
            }
            for mode in MODES
        },
        "overhead_vs_detached": {
            mode: paired_overhead(mode)
            for mode in MODES if mode != "detached"
        },
        "per_event_overhead_seconds": {
            mode: ((best(mode) - best("detached"))
                   / max(runs[mode][0]["events"], 1))
            for mode in MODES if mode != "detached"
        },
        "virtual_time_identical": True,
        "notes": (
            "split aggregation with parallelism=4 is the engine's most "
            "message-dense path (~90% of events are per-message/per-hop "
            "records). event_log buffers "
            "events as objects and serializes in 8192-event batches, so "
            "its emit-path overhead tracks the in-memory recorder's; "
            "event_log_sync is the serialize-per-event baseline, and "
            "flush_seconds is the deferred batch-serialization cost paid "
            "at close. Detached runs pay only a per-site bool check "
            "(~0%): the tier-1 suite's exact virtual-time assertions "
            "pass unchanged with the instrumentation compiled in."
        ),
    }
    target = (Path(args.output) if args.output else
              Path(__file__).resolve().parent.parent
              / "BENCH_obs_overhead.json")
    target.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {target}")


if __name__ == "__main__":
    main()
