"""Host-performance benchmark: writes ``BENCH_host_perf.json``.

Measures what the *host* pays to run the standard LR scale sweep (LR-A and
LR-C on BIC clusters of 2/4/8 nodes, tree and split aggregation) — the
denominator of every future experiment this repo runs:

* end-to-end wall-clock per sweep, serially and at host-pool sizes 1/2/8,
* simulator throughput (kernel events/sec) and task throughput (tasks/sec),
* **parity checksums**: SHA-256 of every trained weight vector plus the
  exact final virtual times, asserted byte-equal across all pool sizes
  (the bit-identity contract of DESIGN.md §9),
* ``host_cpus`` — pool speedups are only meaningful relative to it: on a
  single-CPU host the pool cannot beat serial and the numbers say so.

Usage::

    PYTHONPATH=src python benchmarks/host_perf.py           # full sweep
    PYTHONPATH=src python benchmarks/host_perf.py --smoke   # CI gate

``--smoke`` runs a reduced sweep and exits non-zero on a parity mismatch
between pool sizes or when the sweep's wall-clock exceeds 120% of the
committed ``BENCH_host_perf.json`` baseline's (the >20%-regression CI gate).
The gate is on wall-clock, not events/sec: a change that schedules fewer
kernel events for the same result lowers events/sec and is not a regression.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import AggregationSpec, SparkerSession
from repro.cluster import ClusterConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_host_perf.json"

#: the standard LR scale sweep (workload, nodes, aggregation, iterations)
FULL_SWEEP = [
    (name, nodes, agg, 3)
    for name in ("LR-A", "LR-C")
    for nodes in (2, 4, 8)
    for agg in ("tree", "split")
]

#: reduced sweep for the CI smoke gate
SMOKE_SWEEP = [
    ("LR-A", 2, "tree", 2),
    ("LR-A", 4, "tree", 2),
]

FULL_POOLS = (1, 2, 8)
#: the smoke gate checks the full pool matrix too — the parity checksums
#: must stay byte-identical across every pool size
SMOKE_POOLS = (1, 2, 8)

#: tolerated wall-clock regression against the committed baseline
REGRESSION_SLACK = 0.20


def _checksum(weights) -> str:
    """SHA-256 over the weight vector's raw float64 bytes."""
    if weights is None:
        return ""
    arr = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def run_sweep(sweep, pool=None) -> dict:
    """Run every sweep config; return wall-clock and per-run rows."""
    rows = []
    began = time.perf_counter()
    for name, nodes, agg, iters in sweep:
        result = SparkerSession(ClusterConfig.bic(nodes)).run(
            name, aggregation=agg, iterations=iters,
            spec=AggregationSpec(host_pool=pool))
        rows.append({
            "workload": name,
            "nodes": nodes,
            "aggregation": agg,
            "iterations": iters,
            "end_to_end": result.end_to_end,
            "final_loss": result.final_loss,
            "weights_sha256": _checksum(result.final_weights),
            "sim_events": result.sim_events,
            "tasks_run": result.tasks_run,
        })
    wall = time.perf_counter() - began
    events = sum(row["sim_events"] for row in rows)
    tasks = sum(row["tasks_run"] for row in rows)
    return {
        "wall_seconds": wall,
        "sim_events": events,
        "tasks_run": tasks,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "tasks_per_sec": tasks / wall if wall > 0 else 0.0,
        "rows": rows,
    }


def best_of(n: int, sweep, pool=None) -> dict:
    """Fastest of ``n`` sweeps (de-noises sub-second runs)."""
    runs = [run_sweep(sweep, pool=pool) for _ in range(n)]
    return min(runs, key=lambda run: run["wall_seconds"])


def check_parity(serial: dict, pooled: dict) -> list:
    """Mismatch descriptions between a pooled sweep and the serial one."""
    problems = []
    for ref, row in zip(serial["rows"], pooled["rows"]):
        tag = f"{row['workload']}/bic{row['nodes']}/{row['aggregation']}"
        if row["end_to_end"] != ref["end_to_end"]:
            problems.append(
                f"{tag}: virtual time {row['end_to_end']!r}"
                f" != serial {ref['end_to_end']!r}")
        if row["weights_sha256"] != ref["weights_sha256"]:
            problems.append(f"{tag}: weight checksum diverged")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host wall-clock / throughput / parity benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep + CI gate against the committed"
                             " baseline; writes nothing")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="output path for the full run's JSON")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_OUT,
                        help="committed baseline the smoke gate compares to")
    args = parser.parse_args(argv)

    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP
    pools = SMOKE_POOLS if args.smoke else FULL_POOLS

    # The smoke sweep comes first in both modes, so the CI gate compares
    # two measurements taken the same way: the first thing a fresh process
    # does, best of three.
    smoke_serial = best_of(3, SMOKE_SWEEP, pool=None)
    serial = smoke_serial if args.smoke else run_sweep(sweep, pool=None)
    print(f"serial: {serial['wall_seconds']:.2f}s wall,"
          f" {serial['events_per_sec']:,.0f} events/s,"
          f" {serial['tasks_per_sec']:,.0f} tasks/s")

    pool_results = {}
    parity_problems = []
    for size in pools:
        pooled = run_sweep(sweep, pool=size)
        pooled["speedup_vs_serial"] = (
            serial["wall_seconds"] / pooled["wall_seconds"]
            if pooled["wall_seconds"] > 0 else 0.0)
        problems = check_parity(serial, pooled)
        pooled["parity_ok"] = not problems
        parity_problems.extend(f"pool={size}: {p}" for p in problems)
        pool_results[str(size)] = pooled
        print(f"pool={size}: {pooled['wall_seconds']:.2f}s wall,"
              f" {pooled['speedup_vs_serial']:.2f}x vs serial,"
              f" parity {'OK' if not problems else 'FAILED'}")

    for problem in parity_problems:
        print("PARITY MISMATCH:", problem, file=sys.stderr)

    if args.smoke:
        ok = not parity_problems
        try:
            reference = json.loads(
                args.baseline.read_text())["smoke_reference"]["wall_seconds"]
        except (OSError, ValueError, KeyError):
            print(f"no readable smoke reference in {args.baseline};"
                  " skipping wall-clock gate")
        else:
            # Gate against the baseline's own run of the *smoke* sweep:
            # the full sweep's wall-clock is a different amount of work.
            ceiling = (1.0 + REGRESSION_SLACK) * reference
            actual = serial["wall_seconds"]
            print(f"wall-clock gate: {actual:.3f}s vs ceiling {ceiling:.3f}s")
            if actual > ceiling:
                print("REGRESSION: smoke sweep wall-clock above 120% of"
                      " committed baseline", file=sys.stderr)
                ok = False
        print("smoke:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    smoke_reference = {key: value for key, value in smoke_serial.items()
                       if key != "rows"}
    print(f"smoke reference: {smoke_reference['wall_seconds']:.3f}s wall")

    payload = {
        "benchmark": "host_perf",
        "host_cpus": os.cpu_count(),
        "sweep": [
            {"workload": w, "nodes": n, "aggregation": a, "iterations": i}
            for w, n, a, i in sweep
        ],
        "serial": serial,
        "smoke_reference": smoke_reference,
        "pools": pool_results,
        "parity_ok": not parity_problems,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if not parity_problems else 1


if __name__ == "__main__":
    sys.exit(main())
