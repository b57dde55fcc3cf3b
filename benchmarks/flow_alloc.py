"""Allocator micro-benchmark: writes ``BENCH_flow_alloc.json``.

Measures the max-min fair flow allocator *in isolation* — no RDDs, no ML,
no serde — by churning a steady population of concurrent flows through a
:class:`~repro.cluster.flows.FlowNetwork` and counting flow completions per
wall second. Every event in the run is allocator-driven (flow arrivals,
completion timers, end-of-instant flushes), so the metric moves only when
the allocator or the event calendar does. Kernel events per second are
recorded beside it and never gated: a change that schedules fewer events
for the same completions lowers that rate and is no regression.

Each concurrency level keeps exactly ``flows`` flows in the air: every
flow crosses its own uplink plus one of ``max(1, flows // 512)`` shared
bottleneck sinks, so each level is one contention component of ``flows``
members. The solver applies each completion and re-join as a delta on the
sink's level, so completions/sec should be flat in ``flows``;
``tools/bench_regress.py`` holds the 10-flow level to at most 2x the
1000-flow one. Flow sizes are seeded per driver, so every run schedules an
identical event sequence and the numbers are comparable run to run.

Usage::

    PYTHONPATH=src python benchmarks/flow_alloc.py           # full run
    PYTHONPATH=src python benchmarks/flow_alloc.py --smoke   # CI gate

``--smoke`` runs reduced churn and exits non-zero when any level's
completions/sec falls below 80% of the committed baseline's smoke reference
(the >20%-regression CI rule).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

from repro.cluster.flows import FlowNetwork, Link
from repro.sim import Environment

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_flow_alloc.json"

#: concurrent-flow population per level
LEVELS = (10, 100, 1000)

#: flow completions per driver (full run / smoke run)
FULL_ROUNDS = {10: 400, 100: 60, 1000: 8}
SMOKE_ROUNDS = {10: 120, 100: 20, 1000: 3}

#: tolerated completions/sec regression against the committed baseline
REGRESSION_SLACK = 0.20

#: per-link capacity (bytes/s) and the flow-size band (bytes)
LINK_CAPACITY = 1e9
FLOW_BYTES = (2e7, 2e8)


def run_level(flows: int, rounds: int, seed: int = 0) -> dict:
    """Churn ``flows`` concurrent flows for ``rounds`` completions each."""
    env = Environment()
    net = FlowNetwork(env)
    sinks = [Link(LINK_CAPACITY, f"sink{j}")
             for j in range(max(1, flows // 512))]
    uplinks = [Link(LINK_CAPACITY, f"up{i}") for i in range(flows)]

    def driver(i: int):
        rng = random.Random((seed << 20) ^ i)
        links = [uplinks[i], sinks[i % len(sinks)]]
        for _ in range(rounds):
            nbytes = rng.uniform(*FLOW_BYTES)
            yield net.flow(nbytes, links=links)

    for i in range(flows):
        env.process(driver(i))
    began = time.perf_counter()
    env.run()
    wall = time.perf_counter() - began
    events = env.events_scheduled
    completions = flows * rounds
    return {
        "flows": flows,
        "completions": completions,
        "sim_seconds": env.now,
        "wall_seconds": wall,
        "completions_per_sec": completions / wall if wall > 0 else 0.0,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
    }


def run_levels(rounds_by_level: dict, seed: int = 0) -> dict:
    results = {}
    for flows in LEVELS:
        row = run_level(flows, rounds_by_level[flows], seed=seed)
        results[str(flows)] = row
        print(f"flows={flows:5d}: {row['completions']:6d} completions, "
              f"{row['events']:8d} events in "
              f"{row['wall_seconds']:.2f}s wall -> "
              f"{row['completions_per_sec']:,.0f} completions/s, "
              f"{row['events_per_sec']:,.0f} events/s "
              f"({row['sim_seconds']:.1f} sim-s)")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Allocator-only throughput benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced churn + CI gate against the committed"
                             " baseline; writes nothing")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="output path for the full run's JSON")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_OUT,
                        help="committed baseline the smoke gate compares to")
    args = parser.parse_args(argv)

    if args.smoke:
        levels = run_levels(SMOKE_ROUNDS)
        try:
            baseline = json.loads(args.baseline.read_text())
        except (OSError, ValueError):
            print(f"no readable baseline at {args.baseline};"
                  " skipping throughput gate")
            return 0
        reference = baseline.get("smoke_reference", baseline["levels"])
        ok = True
        for key, row in levels.items():
            ref = reference.get(key)
            if ref is None:
                continue
            floor = (1.0 - REGRESSION_SLACK) * ref["completions_per_sec"]
            line = (f"gate flows={key}: {row['completions_per_sec']:,.0f}"
                    f" completions/s vs floor {floor:,.0f}")
            if row["completions_per_sec"] < floor:
                print(f"REGRESSION: {line}", file=sys.stderr)
                ok = False
            else:
                print(line)
        print("smoke:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    levels = run_levels(FULL_ROUNDS)
    # The smoke sweep's own numbers, so the CI gate compares like with
    # like (short runs amortize warm-up differently than full ones).
    print("smoke reference:")
    smoke_reference = run_levels(SMOKE_ROUNDS)
    payload = {
        "benchmark": "flow_alloc",
        "host_cpus": os.cpu_count(),
        "configuration": {
            "levels": list(LEVELS),
            "link_capacity": LINK_CAPACITY,
            "flow_bytes": list(FLOW_BYTES),
        },
        "levels": levels,
        "smoke_reference": smoke_reference,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
