"""The ledger's catalogue: workloads, end-to-end and per-layer metrics.

This file is the single source of the names. ``BENCHMARK.json`` at the
repository root is :func:`benchmark_json` written out (``run.py
--emit-benchmark-json``); ``test_ledger.py`` fails when the two differ.
The driver's file may carry only name/unit/better(/bound) per metric, so
what else a reader needs — which workloads a metric is measured on, what
each per-layer metric is expected to move — lives here and in README.md.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: seconds one run measures (the driver passes it back as ``--seconds``)
RUN_SECONDS = 20

ALL = ("chaos_agg", "fabric_1000flows", "train_tree", "train_split",
       "service_mix")

#: in the order the ledger runs them: the workloads least sensitive to a
#: noisy host first, so a machine still settling after an idle period
#: disturbs the least (see README, Noise)
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("chaos_agg",
     "156 seeded fault plans under RecoveryPolicy, ring and "
     "pipelined_ring, plus speculation cells: the only workload that "
     "runs the armored drivers, ChunkLedger and faults"),
    ("fabric_1000flows",
     "1000 concurrent flows in one contention component on a bare "
     "Environment: only cluster.flows and sim.calendar run"),
    ("train_tree",
     "the MLlib baseline on train_split's cells: no ring, no comm fabric "
     "(0 s of host time), so a collective change predicts no change; "
     "virt_s here over train_split's is the paper's speedup"),
    ("train_split",
     "paper Fig-16/17 path: split aggregation on BIC and AWS presets; "
     "cluster.flows (38% of host time), sim, comm.fabric and "
     "comm.collectives do the host work"),
    ("service_mix",
     "8 tenants, 3 FAIR pools, open loop: 32 jobs saturated then 128 "
     "paced, via service.reactor/fair; ml is most of the host time and "
     "cluster.flows 2%: a flow-solver change predicts no change"),
)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    what: str


#: every run with ``--trace 0`` reports all of these, on every workload
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "host: first statement of run.py to the first timed call "
             "(imports, input generation, surrogate datasets, one warm-up "
             "cell); median of this process and two fresh ones"),
    EndToEnd("wall_s", "s", "lower", 0.25,
             "host: wall clock of one pass of the workload on a quiet host, "
             "tracing off: the pass is timed in segments (plan, slice, "
             "cell, phase) and each segment counts with the fastest of the "
             "passes that fit in --seconds (ledger_stats.quiet_seconds)"),
    EndToEnd("wall_recorded_s", "s", "lower", 0.25,
             "host: the same of the workload's reduced segment with an "
             "in-memory RecordingListener attached (what a user who "
             "traces pays); on fabric_1000flows nothing emits events, so "
             "it is wall_s"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15,
             "host: ru_maxrss of the run's process"),
    EndToEnd("virt_s", "s", "lower", 0.04,
             "virtual: what the modelled cluster took for one pass (sum "
             "of cell end-to-end / saturated makespan / env.now at drain "
             "/ sum of sc.now over plans)"),
    EndToEnd("virt_agg_s", "s", "lower", 0.04,
             "virtual: the part of virt_s spent aggregating (the paper's "
             "Fig-16 quantity; sum of breakdown.aggregation over cells, "
             "the median paced-phase job's on service_mix, all of it on "
             "fabric_1000flows and on chaos plans)"),
    EndToEnd("virt_unit_p50_s", "s", "lower", 0.06,
             "virtual: median time of one unit of the workload (cell, "
             "paced-phase job latency, flow completion, faulted "
             "aggregation)"),
    EndToEnd("virt_unit_tail_s", "s", "lower", 0.10,
             "virtual: the highest of p75/p90/p95/p99 with at least ten "
             "samples beyond it, the maximum when there are too few units "
             "for any"),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: the end-to-end metric this one should move, and on which workloads
    moves: str
    on: Tuple[str, ...]


def _host(layer: str, on: Tuple[str, ...], moves: str = "wall_s"):
    return PerLayer(f"host.{layer}.self_s", "s", "lower", moves, on)


_HOST: Tuple[PerLayer, ...] = (
    _host("sim", ("chaos_agg", "train_split", "train_tree")),
    _host("cluster_flows", ("fabric_1000flows", "train_split", "train_tree")),
    _host("cluster_network", ("train_split",)),
    _host("comm_fabric", ("train_split", "chaos_agg")),
    _host("comm_collectives", ("train_split", "chaos_agg")),
    _host("core_sai", ("chaos_agg", "train_split")),
    _host("core_imm", ("train_split", "service_mix")),
    _host("rdd", ("service_mix", "train_tree")),
    _host("rdd_hostpool", ()),
    _host("serde", ("chaos_agg", "train_tree")),
    _host("ml", ("service_mix", "train_tree")),
    _host("data", ()),
    _host("faults", ("chaos_agg",)),
    _host("service", ("service_mix",)),
    _host("obs", ("train_split",), moves="wall_recorded_s"),
    _host("numpy_builtin", ("fabric_1000flows", "train_tree")),
    _host("other", ALL),
    _host("total", ALL),
)

_VIRT: Tuple[PerLayer, ...] = tuple(
    PerLayer(name, "s", "lower", moves, on) for name, moves, on in (
        ("virt.agg_compute_s", "virt_agg_s", ("train_split", "train_tree")),
        ("virt.agg_reduce_s", "virt_agg_s", ("train_tree", "train_split")),
        ("virt.driver_s", "virt_s", ("train_split", "train_tree")),
        ("virt.non_agg_s", "virt_s", ("train_split", "train_tree")),
        ("virt.cp.compute_s", "virt_s", ("train_split", "train_tree")),
        ("virt.cp.serde_s", "virt_agg_s", ("train_tree",)),
        ("virt.cp.wire_s", "virt_agg_s", ("train_tree", "train_split")),
        ("virt.cp.queueing_s", "virt_unit_tail_s", ("service_mix",)),
        ("virt.cp.overhead_s", "virt_s", ("service_mix",)),
        ("virt.cp.driver_s", "virt_s", ("train_split", "service_mix")),
        ("virt.cp.recovery_s", "virt_unit_tail_s", ("chaos_agg",)),
        ("virt.cp.other_s", "virt_s", ()),
        ("chaos.recovery_overhead_p50_s", "virt_unit_p50_s", ("chaos_agg",)),
        ("chaos.recovery_overhead_p90_s", "virt_unit_tail_s",
         ("chaos_agg",)),
    ))

_COUNTS: Tuple[PerLayer, ...] = tuple(
    PerLayer(f"count.{name}", "count", better, "wall_s", on)
    for name, better, on in (
        ("sim_events", "lower", ALL),
        ("tasks", "lower", ("train_split", "train_tree", "service_mix")),
        ("messages", "lower", ("train_split", "chaos_agg")),
        ("wire_bytes", "lower", ("train_split", "train_tree")),
        ("ring_hops", "lower", ("train_split", "chaos_agg")),
        ("imm_merges", "lower", ("train_split", "service_mix")),
        ("obs_events", "lower", ("train_split",)),
        ("flow_completions", "higher", ("fabric_1000flows",)),
        ("recovery_actions", "lower", ("chaos_agg",)),
        ("speculative_attempts", "lower", ("chaos_agg",)),
        ("collective_downgrades", "lower", ("chaos_agg", "service_mix")),
        ("jobs_rejected", "lower", ("service_mix",)),
    ))

_OTHER: Tuple[PerLayer, ...] = (
    PerLayer("trace_overhead_frac", "ratio", "lower", "none", ALL),
    PerLayer("service.fair_share_ratio", "ratio", "lower",
             "virt_unit_tail_s", ("service_mix",)),
)


def _micro(name: str, unit: str, moves: str, on: Tuple[str, ...],
           better: str = "higher"):
    return PerLayer(f"micro.{name}", unit, better, moves, on)


_MICRO: Tuple[PerLayer, ...] = (
    _micro("sim.calendar_ops_per_s", "1/s", "wall_s",
           ("fabric_1000flows", "train_split")),
    _micro("sim.timeout_events_per_s", "1/s", "wall_s",
           ("fabric_1000flows", "train_split")),
    _micro("sim.resource_handoffs_per_s", "1/s", "wall_s",
           ("train_split", "train_tree")),
    _micro("cluster_flows.events_per_s_f10", "1/s", "wall_s",
           ("train_split",)),
    _micro("cluster_flows.events_per_s_f100", "1/s", "wall_s",
           ("train_split",)),
    _micro("cluster_flows.events_per_s_f1000", "1/s", "wall_s",
           ("fabric_1000flows",)),
    _micro("comm_fabric.msgs_per_s", "1/s", "wall_s", ("train_split",)),
    _micro("comm_collectives.ring_hops_per_s", "1/s", "wall_s",
           ("train_split",)),
    _micro("comm_collectives.ring_over_mpi_x", "x", "virt_agg_s",
           ("train_split",), better="lower"),
    _micro("comm_collectives.pipelined_ring_over_mpi_x", "x", "virt_agg_s",
           ("train_split", "chaos_agg"), better="lower"),
    _micro("comm_collectives.hd_over_mpi_x", "x", "virt_agg_s",
           ("service_mix",), better="lower"),
    _micro("comm_collectives.hierarchical_over_mpi_x", "x", "virt_agg_s",
           ("train_split",), better="lower"),
    _micro("comm_cost.choose_per_s", "1/s", "wall_s", ("train_split",)),
    _micro("core_imm.merges_per_s", "1/s", "wall_s",
           ("service_mix", "train_split")),
    _micro("core_sai.split_aggregate_per_s", "1/s", "wall_s",
           ("service_mix", "chaos_agg")),
    _micro("core_sai.tree_aggregate_per_s", "1/s", "wall_s",
           ("service_mix", "train_tree")),
    _micro("rdd.tasks_per_s", "1/s", "wall_s",
           ("train_tree", "service_mix")),
    _micro("rdd_hostpool.roundtrip_mb_per_s", "MB/s", "none", ()),
    _micro("serde.sim_sizeof_per_s", "1/s", "wall_s", ("train_tree",)),
    _micro("serde.payload_split_concat_per_s", "1/s", "wall_s",
           ("train_tree", "chaos_agg")),
    _micro("serde.merge_sparse_per_s", "1/s", "wall_s", ("train_tree",)),
    _micro("ml.seqop_samples_per_s", "1/s", "wall_s", ("train_tree",)),
    _micro("service.handoffs_per_s", "1/s", "wall_s", ("service_mix",)),
    _micro("service.noop_jobs_per_s", "1/s", "wall_s", ("service_mix",)),
    _micro("obs.emit_per_s", "1/s", "wall_recorded_s", ("train_split",)),
    _micro("obs.critical_path_events_per_s", "1/s", "none", ()),
)

#: every run with ``--trace 1`` reports all of these, on every workload
PER_LAYER: Tuple[PerLayer, ...] = _HOST + _VIRT + _COUNTS + _OTHER + _MICRO

#: the host partition's buckets, in report order (``total`` is their sum)
HOST_LAYERS: Tuple[str, ...] = tuple(
    m.name.split(".")[1] for m in _HOST if m.name != "host.total.self_s")


def benchmark_json() -> Dict[str, object]:
    """The exact content of the root ``BENCHMARK.json``."""
    workloads: List[Dict[str, str]] = [
        {"name": name, "why": why} for name, why in WORKLOADS]
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER],
    }
