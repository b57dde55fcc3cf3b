"""One experiment function per paper table and figure.

Each function runs the simulation(s) behind one exhibit of the paper's
evaluation and returns structured rows; ``as_table`` renders them exactly
like the paper reports them (times, speedups, decompositions). The
``benchmarks/`` suite calls these at full scale; unit tests call them with
reduced parameters and assert the qualitative shape.

Scale knobs default to the paper's own sweep points; pass smaller ones for
quick runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import KB, MB, Cluster, ClusterConfig
from ..core.spec import AggregationSpec
from ..comm import (
    MpiCommunicator,
    ScalableCommunicator,
    bm_transport,
    measure_latency,
    measure_throughput,
    mpi_transport,
    sc_transport,
)
from ..data.registry import DATASETS
from ..serde import SizedPayload
from ..sim import Environment
from .harness import TimeBreakdown, format_table
from .workloads import WORKLOADS, WorkloadResult

__all__ = [
    "table1_clusters",
    "table2_datasets",
    "table3_models",
    "fig1_mllib_speedup",
    "fig2_time_breakdown",
    "fig3_lda_scaling_bic",
    "fig4_lda_scaling_aws",
    "fig12_p2p_latency",
    "fig13_p2p_throughput",
    "fig14_reduce_scatter_parallelism",
    "fig15_reduce_scatter_scaling",
    "fig16_aggregation_scaling",
    "fig17_e2e_speedup",
    "fig18_sparker_scaling",
    "aws_config_for_cores",
    "bic_config_for_cores",
]


# ---------------------------------------------------------------- tables
def table1_clusters() -> str:
    """Table 1: the two cluster configurations."""
    bic, aws = ClusterConfig.bic(), ClusterConfig.aws()
    rows = [
        ("Number of nodes", bic.num_nodes, aws.num_nodes),
        ("Logical cores per node", bic.cores_per_node, aws.cores_per_node),
        ("Memory per node (GB)", int(bic.memory_per_node / (1 << 30)),
         int(aws.memory_per_node / (1 << 30))),
        ("Executors per node", bic.executors_per_node,
         aws.executors_per_node),
        ("Executor cores", bic.executor_cores, aws.executor_cores),
        ("Executor memory (GB)", int(bic.executor_memory / (1 << 30)),
         int(aws.executor_memory / (1 << 30))),
        ("NIC bandwidth (MB/s)", round(bic.nic_bandwidth / MB),
         round(aws.nic_bandwidth / MB)),
    ]
    return format_table(["Configuration", "BIC", "AWS"], rows,
                        title="Table 1: simulated cluster configurations")


def table2_datasets() -> str:
    """Table 2: datasets and their surrogates."""
    rows = []
    for spec in DATASETS.values():
        rows.append((spec.name, f"{spec.paper_samples:,}",
                     f"{spec.paper_features:,}", spec.task, spec.source,
                     f"{spec.surrogate_samples:,}",
                     f"{spec.surrogate_features:,}",
                     f"{spec.size_scale:.0f}x"))
    return format_table(
        ["Dataset", "Samples", "Features", "Task", "Source",
         "Surr.samples", "Surr.features", "SizeScale"],
        rows, title="Table 2: datasets (paper scale and surrogate scale)")


def table3_models() -> str:
    """Table 3: the three MLlib models."""
    rows = [
        ("Logistic Regression", "regParam=0, elasticNetParam=0",
         "classification"),
        ("SVM", "miniBatchFrac=1.0, regParam=0.01", "classification"),
        ("LDA", "K=100", "topic model"),
    ]
    return format_table(["Name", "Parameter", "Task"], rows,
                        title="Table 3: models")


def _session(config: ClusterConfig):
    # imported late: repro.service.session imports repro.bench.harness
    from ..service.session import SparkerSession
    return SparkerSession(config)


# ----------------------------------------------------------- Figures 1/2
def fig1_mllib_speedup(workloads: Optional[Sequence[str]] = None,
                       iterations: int = 2,
                       ) -> List[Tuple[str, float, float, float]]:
    """Figure 1: 8-node vs 1-node MLlib (treeAggregate) speedups on BIC.

    Returns ``[(workload, t_1node, t_8node, speedup), ...]``.
    """
    names = list(workloads or WORKLOADS)
    rows = []
    for name in names:
        t1, t8 = (_session(ClusterConfig.bic(num_nodes=nodes)).run(
            name, aggregation="tree", iterations=iterations)
            for nodes in (1, 8))
        rows.append((name, t1.end_to_end, t8.end_to_end,
                     t1.end_to_end / t8.end_to_end))
    return rows


def fig2_time_breakdown(workloads: Optional[Sequence[str]] = None,
                        iterations: int = 2,
                        ) -> List[Tuple[str, TimeBreakdown]]:
    """Figure 2: aggregation / non-aggregation / driver shares on 8-node BIC."""
    names = list(workloads or WORKLOADS)
    rows = []
    for name in names:
        result = _session(ClusterConfig.bic(num_nodes=8)).run(
            name, aggregation="tree", iterations=iterations)
        rows.append((name, result.breakdown))
    return rows


# -------------------------------------------------------- Figures 3/4/18
def bic_config_for_cores(cores: int) -> ClusterConfig:
    """A BIC slice with ``cores`` total executor cores (24 per node)."""
    per_node = ClusterConfig.bic().executors_per_node \
        * ClusterConfig.bic().executor_cores
    if cores % per_node or cores == 0:
        raise ValueError(f"BIC core counts are multiples of {per_node}")
    return ClusterConfig.bic(num_nodes=cores // per_node)


def aws_config_for_cores(cores: int) -> ClusterConfig:
    """An AWS slice with ``cores`` total executor cores.

    Below one full node (96 cores) executors shrink onto a single node,
    mirroring the paper's intra-node configurations (§5.3.2).
    """
    base = ClusterConfig.aws()
    per_node = base.executors_per_node * base.executor_cores  # 96
    if cores >= per_node:
        if cores % per_node:
            raise ValueError(
                f"multi-node AWS core counts are multiples of {per_node}")
        return base.with_nodes(cores // per_node)
    if cores % base.executor_cores:
        raise ValueError(
            f"intra-node AWS core counts are multiples of "
            f"{base.executor_cores}")
    return base.with_nodes(1).with_executors_per_node(
        cores // base.executor_cores, base.executor_cores)


def _lda_scaling(configs: Sequence[ClusterConfig], aggregation: str,
                 iterations: int) -> List[Tuple[int, WorkloadResult]]:
    rows = []
    for config in configs:
        result = _session(config).run(
            "LDA-N", aggregation=aggregation, iterations=iterations)
        rows.append((config.num_executors * config.executor_cores, result))
    return rows


def fig3_lda_scaling_bic(core_counts: Sequence[int] = (24, 48, 96, 192),
                         iterations: int = 2,
                         ) -> List[Tuple[int, WorkloadResult]]:
    """Figure 3: LDA-N decomposed end-to-end time vs cores on BIC (Spark)."""
    return _lda_scaling([bic_config_for_cores(c) for c in core_counts],
                        "tree", iterations)


def fig4_lda_scaling_aws(core_counts: Sequence[int] = (8, 96, 192, 480, 960),
                         iterations: int = 2,
                         ) -> List[Tuple[int, WorkloadResult]]:
    """Figure 4: LDA-N decomposed end-to-end time vs cores on AWS (Spark)."""
    return _lda_scaling([aws_config_for_cores(c) for c in core_counts],
                        "tree", iterations)


def fig18_sparker_scaling(core_counts: Sequence[int] = (8, 96, 192, 480, 960),
                          iterations: int = 2,
                          ) -> List[Tuple[int, WorkloadResult, WorkloadResult]]:
    """Figure 18: LDA-N on AWS, Spark (left bar) vs Sparker (right bar).

    Returns ``[(cores, spark_result, sparker_result), ...]``.
    """
    rows = []
    for cores in core_counts:
        config = aws_config_for_cores(cores)
        spark, sparker = (_session(config).run(
            "LDA-N", aggregation=aggregation, iterations=iterations)
            for aggregation in ("tree", "split"))
        rows.append((cores, spark, sparker))
    return rows


# ------------------------------------------------------ Figures 12/13/14/15
def fig12_p2p_latency() -> Dict[str, float]:
    """Figure 12: point-to-point one-way latency of BM / SC / MPI on BIC."""
    out = {}
    for label, factory in (("BM", bm_transport), ("SC", sc_transport),
                           ("MPI", mpi_transport)):
        env = Environment()
        cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
        out[label] = measure_latency(cluster, factory(cluster.config))
    return out


def fig13_p2p_throughput(sizes: Optional[Sequence[int]] = None,
                         ) -> List[Tuple[int, Dict[str, float]]]:
    """Figure 13: p2p throughput vs message size; SC parallelism 1/2/4, MPI."""
    sizes = list(sizes or [1 * KB, 8 * KB, 64 * KB, 512 * KB, 1 * MB,
                           8 * MB, 32 * MB, 64 * MB, 128 * MB, 256 * MB])
    rows = []
    for nbytes in sizes:
        cell: Dict[str, float] = {}
        for label, factory, parallelism in (
                ("MPI", mpi_transport, 1),
                ("SC-1", sc_transport, 1),
                ("SC-2", sc_transport, 2),
                ("SC-4", sc_transport, 4)):
            env = Environment()
            cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
            cell[label] = measure_throughput(
                cluster, factory(cluster.config), nbytes,
                parallelism=parallelism)
        rows.append((nbytes, cell))
    return rows


def _run_sc_reduce_scatter(config: ClusterConfig, nbytes: float,
                           parallelism: int, topology_aware: bool,
                           num_executors: Optional[int] = None,
                           physical_elems: int = 4096) -> float:
    """Elapsed simulated seconds of one SC reduce-scatter."""
    env = Environment()
    cluster = Cluster(env, config)
    slots = (cluster.executors[:num_executors]
             if num_executors is not None else None)
    comm = ScalableCommunicator(cluster, parallelism=parallelism,
                                topology_aware=topology_aware, slots=slots)
    values = [SizedPayload(np.ones(physical_elems), sim_bytes=nbytes)
              for _ in range(comm.size)]
    began = env.now
    proc = env.process(comm.reduce_scatter(
        values, lambda u, i, n: u.split(i, n), lambda a, b: a.merge(b)))
    env.run(until=proc)
    return env.now - began


def _run_mpi_reduce_scatter(config: ClusterConfig, nbytes: float,
                            num_executors: Optional[int] = None,
                            physical_elems: int = 4096) -> float:
    """Elapsed simulated seconds of one MPI reduce-scatter (auto algorithm)."""
    env = Environment()
    cluster = Cluster(env, config)
    slots = (cluster.executors[:num_executors]
             if num_executors is not None else None)
    comm = MpiCommunicator(cluster, slots=slots)
    values = [SizedPayload(np.ones(physical_elems), sim_bytes=nbytes)
              for _ in range(comm.size)]
    began = env.now
    proc = env.process(comm.reduce_scatter(
        values, lambda u, i, n: u.split(i, n), lambda a, b: a.merge(b)))
    env.run(until=proc)
    return env.now - began


def fig14_reduce_scatter_parallelism(
        parallelisms: Sequence[int] = (1, 2, 4, 8),
        nbytes: float = 256 * MB,
        num_nodes: int = 8) -> Dict[str, Dict]:
    """Figure 14: reduce-scatter vs parallelism, plus topology awareness.

    48 executors (8 BIC nodes), 256 MB messages, as in the paper.
    """
    config = ClusterConfig.bic(num_nodes=num_nodes)
    by_parallelism = {
        p: _run_sc_reduce_scatter(config, nbytes, p, topology_aware=True)
        for p in parallelisms
    }
    topo = {
        "hostname-sorted": by_parallelism.get(4) if 4 in by_parallelism
        else _run_sc_reduce_scatter(config, nbytes, 4, topology_aware=True),
        "id-sorted": _run_sc_reduce_scatter(config, nbytes, 4,
                                            topology_aware=False),
    }
    return {"parallelism": by_parallelism, "topology": topo}


def fig15_reduce_scatter_scaling(
        executor_counts: Sequence[int] = (6, 12, 24, 48),
        sizes: Sequence[float] = (256 * KB, 256 * MB),
        ) -> List[Tuple[float, int, float, float]]:
    """Figure 15: reduce-scatter time vs executors, SC vs MPI.

    Executors scale with BIC nodes (6 per node). Returns
    ``[(nbytes, n_executors, sc_seconds, mpi_seconds), ...]``.
    """
    rows = []
    for nbytes in sizes:
        for n_exec in executor_counts:
            if n_exec % 6:
                raise ValueError("BIC executor counts are multiples of 6")
            config = ClusterConfig.bic(num_nodes=n_exec // 6)
            sc_time = _run_sc_reduce_scatter(config, nbytes, parallelism=4,
                                             topology_aware=True)
            mpi_time = _run_mpi_reduce_scatter(config, nbytes)
            rows.append((nbytes, n_exec, sc_time, mpi_time))
    return rows


# -------------------------------------------------------------- Figure 16
def fig16_aggregation_scaling(
        node_counts: Sequence[int] = (1, 2, 4, 8),
        sizes: Sequence[float] = (1 * KB, 8 * MB, 256 * MB),
        methods: Sequence[str] = ("tree", "tree_imm", "split"),
        physical_elems: int = 512,
        ) -> List[Tuple[float, int, str, float]]:
    """Figure 16: RDD aggregation micro-benchmark.

    Sums an RDD of fixed-size arrays (one per core, MEMORY_ONLY,
    pre-loaded with ``count``) with tree / tree+IMM / split aggregation.
    Returns ``[(nbytes, nodes, method, seconds), ...]``.
    """
    rows = []
    for nbytes in sizes:
        for nodes in node_counts:
            for method in methods:
                sc = _session(ClusterConfig.bic(num_nodes=nodes)).context()
                n_parts = sc.cluster.total_cores
                data = [SizedPayload(np.ones(physical_elems),
                                     sim_bytes=nbytes)
                        for _ in range(n_parts)]
                rdd = sc.parallelize(data, n_parts).cache()
                rdd.count()
                zero = lambda: SizedPayload(  # noqa: E731
                    np.zeros(physical_elems), sim_bytes=nbytes)
                began = sc.now
                if method == "split":
                    result = rdd.split_aggregate(
                        zero, lambda a, x: a.merge_inplace(x),
                        lambda u, i, n: u.split(i, n),
                        lambda a, b: a.merge(b),
                        SizedPayload.concat,
                        AggregationSpec(parallelism=4))
                else:
                    result = rdd.tree_aggregate(
                        zero, lambda a, x: a.merge_inplace(x),
                        lambda a, b: a.merge(b),
                        imm=(method == "tree_imm"))
                elapsed = sc.now - began
                expected = float(n_parts)
                if not np.allclose(result.data, expected):
                    raise AssertionError(
                        f"aggregation result wrong for {method}: "
                        f"{result.data[:3]} != {expected}")
                rows.append((nbytes, nodes, method, elapsed))
    return rows


# -------------------------------------------------------------- Figure 17
def fig17_e2e_speedup(clusters: Sequence[str] = ("BIC", "AWS"),
                      workloads: Optional[Sequence[str]] = None,
                      iterations: int = 2,
                      ) -> List[Tuple[str, str, float, float, float]]:
    """Figure 17: end-to-end Sparker speedup over Spark per workload.

    Returns ``[(cluster, workload, spark_s, sparker_s, speedup), ...]``.
    """
    names = list(workloads or WORKLOADS)
    configs = {"BIC": ClusterConfig.bic(), "AWS": ClusterConfig.aws()}
    rows = []
    for cluster_name in clusters:
        config = configs[cluster_name]
        for name in names:
            spark, sparker = (_session(config).run(
                name, aggregation=aggregation, iterations=iterations)
                for aggregation in ("tree", "split"))
            rows.append((cluster_name, name, spark.end_to_end,
                         sparker.end_to_end,
                         spark.end_to_end / sparker.end_to_end))
    return rows


# -------------------------------------------------------------- rendering
def breakdown_rows(rows: List[Tuple[int, WorkloadResult]]) -> List[Tuple]:
    out = []
    for cores, result in rows:
        b = result.breakdown
        out.append((cores, b.agg_compute, b.agg_reduce, b.driver, b.non_agg,
                    result.end_to_end))
    return out
