"""Multi-tenant job-service benchmark: writes ``BENCH_service.json``.

Three phases over one seeded open-loop traffic mix (8 tenants, 3 FAIR
pools, mixed LR/SVM jobs with varied ``AggregationSpec``s):

1. **Concurrent** — the full schedule through one long-lived driver
   (:class:`repro.service.JobServer`), stages from different jobs
   interleaving on the shared executor pool. Reports p50/p99 job latency
   and makespan.
2. **Serialized FIFO** — the *same* schedule, one job at a time in
   arrival order on an identical service (jobs still arrive open-loop;
   the queue drains strictly FIFO). The concurrent/serialized makespan
   ratio is the throughput speedup of multi-tenancy.
3. **Isolated identity** — each distinct job signature re-run alone on a
   fresh context via the classic synchronous path; every concurrent
   job's final weights must be byte-identical to its isolated run
   (ordered deferred-merge IMM makes cross-job interleaving
   unobservable).

A separate **burst fairness** phase saturates all three pools at once
and samples the FAIR arbiter: over the window where every pool has
demand, per-pool task-seconds divided by pool weight must agree within
2x (weighted max/min share <= 2.0).

Usage::

    PYTHONPATH=src python benchmarks/service.py          # full, writes JSON
    PYTHONPATH=src python benchmarks/service.py --smoke  # CI gate, no write
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro import AggregationSpec
from repro.cluster import ClusterConfig
from repro.service import (
    PoolConfig,
    SparkerSession,
    TenantProfile,
    arrival_schedule,
    run_open_loop,
    submit_arrival,
)

NODES = 4          # laptop(4): 4 nodes x 2 executors x 2 cores = 16 slots
PARTITIONS = 4     # each job uses 4 of 16 slots -> concurrency pays (the
                   # `utilisation` block shows all 8 executors working)
ITERATIONS = 2
SEED = 2026

POOLS = {
    "gold": PoolConfig(weight=3.0),
    "silver": PoolConfig(weight=2.0),
    "bronze": PoolConfig(weight=1.0),
}

SPLIT_SPECS = (AggregationSpec(collective="ring", parallelism=2),
               AggregationSpec(collective="hd", parallelism=2))


def tenant_mix(jobs_per_tenant: int) -> List[TenantProfile]:
    """Eight tenants over three pools, mixed models/specs, two bursty."""
    common = dict(jobs=jobs_per_tenant, iterations=ITERATIONS,
                  partitions=PARTITIONS)
    return [
        TenantProfile("ads-train", pool="gold", workloads=("LR-A",),
                      aggregation="split", specs=SPLIT_SPECS,
                      mean_interarrival=30.0, **common),
        TenantProfile("feed-rank", pool="gold", workloads=("SVM-A",),
                      aggregation="tree", mean_interarrival=30.0, **common),
        TenantProfile("spam-filter", pool="silver", workloads=("LR-A", "SVM-A"),
                      aggregation="tree", mean_interarrival=40.0, **common),
        TenantProfile("ctr-sweep", pool="silver", workloads=("LR-A",),
                      aggregation="split", specs=SPLIT_SPECS,
                      mean_interarrival=90.0, burst=3, **common),
        TenantProfile("churn-model", pool="silver", workloads=("SVM-A",),
                      aggregation="tree_imm", mean_interarrival=40.0, **common),
        TenantProfile("analyst-1", pool="bronze", workloads=("LR-A", "SVM-A"),
                      aggregation="tree", mean_interarrival=50.0, **common),
        TenantProfile("analyst-2", pool="bronze", workloads=("SVM-A",),
                      aggregation="split", specs=SPLIT_SPECS,
                      mean_interarrival=120.0, burst=4, **common),
        TenantProfile("intern", pool="bronze", workloads=("LR-A",),
                      aggregation="tree", mean_interarrival=50.0, **common),
    ]


def make_session() -> SparkerSession:
    return SparkerSession(ClusterConfig.laptop(num_nodes=NODES),
                          pools=dict(POOLS))


# ----------------------------------------------------------------- phases
def concurrent_phase(tenants) -> Tuple[dict, Dict[Tuple, np.ndarray], dict]:
    """Run the schedule concurrently; report, weights by signature and
    the ``utilisation`` block."""
    with make_session() as session:
        result = run_open_loop(session, tenants, seed=SEED)
        weights: Dict[Tuple, np.ndarray] = {}
        mismatched_dupes = []
        for arrival, handle in result.submissions:
            if handle is None:
                continue
            w = handle.result().final_weights
            key = arrival.signature
            if key in weights:
                if not np.array_equal(weights[key], w):
                    mismatched_dupes.append(key)
            else:
                weights[key] = w
        report = {
            "jobs": len(result.handles),
            "tenants": len({a.tenant for a, _ in result.submissions}),
            "statuses": result.by_status(),
            "makespan": result.makespan,
            "p50": result.percentile(0.50),
            "p99": result.percentile(0.99),
            "rejected": len(result.rejections),
            "duplicate_signatures_identical": not mismatched_dupes,
        }
        utilisation = utilisation_block(session.server)
    return report, weights, utilisation


def utilisation_block(server) -> dict:
    """Per-executor tasks and slot share over the phase; JSON keys are
    strings, floats rounded so the artifact diffs stay readable."""
    usage = server.slot_utilisation()
    return {
        "window": usage["window"],
        "idle_executors": usage["idle_executors"],
        "tasks": {str(eid): row["tasks"]
                  for eid, row in usage["executors"].items()},
        "slot_share": {str(eid): round(row["utilisation"], 4)
                       for eid, row in usage["executors"].items()},
    }


def serialized_phase(tenants) -> dict:
    """Same schedule, strictly one job at a time, in arrival order."""
    schedule = arrival_schedule(tenants, seed=SEED)
    with make_session() as session:
        env = session.server.sc.env
        began = env.now
        latencies = []
        for arrival in schedule:
            wait = began + arrival.time - env.now
            if wait > 0:
                # idle until the job actually arrives (open-loop arrivals,
                # FIFO single-slot service)
                env.run(until=env.timeout(wait))
            handle = submit_arrival(session, arrival)
            handle.result()
            latencies.append(env.now - (began + arrival.time))
        latencies.sort()
        return {
            "jobs": len(schedule),
            "makespan": env.now - began,
            "p50": latencies[len(latencies) // 2],
            "p99": latencies[min(len(latencies) - 1,
                                 int(0.99 * len(latencies)))],
        }


def identity_phase(tenants, concurrent_weights: Dict[Tuple, np.ndarray]) -> dict:
    """Re-run each distinct signature alone; weights must match exactly."""
    schedule = arrival_schedule(tenants, seed=SEED)
    signatures: Dict[Tuple, object] = {}
    for arrival in schedule:
        signatures.setdefault(arrival.signature, arrival)
    mismatches = []
    for key, arrival in signatures.items():
        isolated = SparkerSession(ClusterConfig.laptop(num_nodes=NODES)).run(
            arrival.workload, aggregation=arrival.aggregation,
            iterations=arrival.iterations, spec=arrival.spec,
            partitions=arrival.partitions)
        if key in concurrent_weights and not np.array_equal(
                concurrent_weights[key], isolated.final_weights):
            mismatches.append(list(key))
    return {
        "distinct_signatures": len(signatures),
        "compared": len(concurrent_weights),
        "mismatches": mismatches,
        "all_match": not mismatches,
    }


def fairness_phase(jobs_per_pool: int) -> dict:
    """Burst all pools at t=0; weighted shares over the saturated window."""
    with make_session() as session:
        server = session.server
        env = server.sc.env
        handles: Dict[str, list] = {pool: [] for pool in POOLS}
        for pool in POOLS:
            for i in range(jobs_per_pool):
                handles[pool].append(session.submit(
                    "LR-A", pool=pool, tenant=f"burst-{pool}",
                    iterations=ITERATIONS, partitions=PARTITIONS))
        samples: List[Tuple[float, dict]] = []

        def monitor():
            while any(not h.done() for hs in handles.values() for h in hs):
                yield env.timeout(2.0)
                samples.append((env.now, server.sample_pools()))

        env.process(monitor(), name="fairness:monitor")
        server.drain()
        # the window where every pool still has unfinished jobs: weighted
        # FAIR sharing only applies while demand is saturated
        pool_done = {pool: max(h.latency for h in hs)
                     for pool, hs in handles.items()}
        window_end = min(pool_done.values())
        in_window = [s for t, s in samples if t <= window_end]
        snapshot = in_window[-1] if in_window else samples[-1][1]
        shares = {pool: snapshot[pool]["task_seconds"] / POOLS[pool].weight
                  for pool in POOLS}
        ratio = max(shares.values()) / min(shares.values())
        return {
            "jobs_per_pool": jobs_per_pool,
            "window_end": window_end,
            "task_seconds": {pool: snapshot[pool]["task_seconds"]
                             for pool in POOLS},
            "weighted_shares": shares,
            "weighted_max_min_ratio": ratio,
        }


# -------------------------------------------------------------------- CLI
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small schedule, no artifact write")
    parser.add_argument("--out", type=Path, default=None,
                        help="artifact path override")
    args = parser.parse_args(argv)

    jobs_per_tenant = 3 if args.smoke else 13      # 8 tenants -> 24 / 104
    burst_jobs = 4 if args.smoke else 6
    tenants = tenant_mix(jobs_per_tenant)
    t0 = time.perf_counter()

    concurrent, weights, utilisation = concurrent_phase(tenants)
    print(f"concurrent: {concurrent['jobs']} jobs, "
          f"makespan {concurrent['makespan']:.1f}s virtual, "
          f"p50 {concurrent['p50']:.1f}s p99 {concurrent['p99']:.1f}s, "
          f"tasks per executor {list(utilisation['tasks'].values())}")

    serialized = serialized_phase(tenants)
    speedup = serialized["makespan"] / concurrent["makespan"]
    print(f"serialized FIFO: makespan {serialized['makespan']:.1f}s virtual "
          f"-> concurrent speedup {speedup:.2f}x")

    identity = identity_phase(tenants, weights)
    print(f"identity: {identity['compared']} signatures vs isolated runs, "
          f"all_match={identity['all_match']}")

    fairness = fairness_phase(burst_jobs)
    print(f"fairness: weighted max/min share ratio "
          f"{fairness['weighted_max_min_ratio']:.2f} "
          f"(shares {fairness['weighted_shares']})")

    acceptance = {
        "scale_ok": (concurrent["jobs"] >= (20 if args.smoke else 100)
                     and concurrent["tenants"] >= 8),
        "throughput_ok": speedup >= 1.5,
        "fairness_ok": fairness["weighted_max_min_ratio"] <= 2.0,
        # an exact count: every executor ran tasks (gang placement)
        "placement_ok": utilisation["idle_executors"] == 0,
        "all_succeeded":
            concurrent["statuses"].get("succeeded", 0) == concurrent["jobs"],
    }
    report = {
        "benchmark": "service",
        "configuration": {
            "cluster": "laptop", "nodes": NODES,
            "partitions": PARTITIONS, "iterations": ITERATIONS,
            "tenants": len(tenants), "jobs_per_tenant": jobs_per_tenant,
            "pools": {name: config.weight
                      for name, config in POOLS.items()},
            "seed": SEED, "smoke": args.smoke,
        },
        "throughput": {
            "concurrent_makespan": concurrent["makespan"],
            "serialized_makespan": serialized["makespan"],
            "speedup_vs_fifo": speedup,
            "jobs_per_1000s": 1000.0 * concurrent["jobs"]
                / concurrent["makespan"],
        },
        "latency": {"p50": concurrent["p50"], "p99": concurrent["p99"],
                    "fifo_p50": serialized["p50"],
                    "fifo_p99": serialized["p99"]},
        "fairness": fairness,
        "utilisation": utilisation,
        "identity": identity,
        "concurrent": concurrent,
        "acceptance": acceptance,
        "wall_seconds": time.perf_counter() - t0,
        "notes": (
            "Virtual-time makespans/latencies of the same seeded open-loop "
            "schedule run concurrently vs strictly-FIFO through one "
            "long-lived driver. Identity compares every concurrent job's "
            "final weights byte-for-byte against the same job run alone on "
            "a fresh context (SparkerSession.run). Fairness bursts "
            "all pools at once and compares task-seconds/weight over the "
            "window where every pool has demand."
        ),
    }

    target = args.out or (Path(__file__).resolve().parent.parent
                          / "BENCH_service.json")
    if not args.smoke:
        target.write_text(json.dumps(report, indent=2) + "\n",
                          encoding="utf-8")
        print(f"\nwrote {target}")
    else:
        print(json.dumps(report, indent=2))
    failed = [name for name, ok in acceptance.items() if not ok]
    if failed or not identity["all_match"]:
        print(f"FAILED: {failed or 'identity mismatch'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
