"""Benchmark harness: workloads, experiments (one per table/figure), tools.

``benchmarks/test_*.py`` is the one way to regenerate an exhibit: each
test runs its experiment here, prints and records the paper's rows under
``benchmarks/results/`` and asserts the paper's shape. Run all of them
with ``pytest benchmarks/ --ignore=benchmarks/ledger``, or one with
``pytest benchmarks/test_fig16_aggregation_scaling.py -s``.
"""

from .experiments import (
    aws_config_for_cores,
    bic_config_for_cores,
    fig1_mllib_speedup,
    fig2_time_breakdown,
    fig3_lda_scaling_bic,
    fig4_lda_scaling_aws,
    fig12_p2p_latency,
    fig13_p2p_throughput,
    fig14_reduce_scatter_parallelism,
    fig15_reduce_scatter_scaling,
    fig16_aggregation_scaling,
    fig17_e2e_speedup,
    fig18_sparker_scaling,
    table1_clusters,
    table2_datasets,
    table3_models,
)
from .harness import (
    BreakdownRecorder,
    TimeBreakdown,
    format_seconds,
    format_table,
    geomean,
)
from .workloads import WORKLOADS, WorkloadResult, WorkloadSpec

__all__ = [
    "TimeBreakdown",
    "BreakdownRecorder",
    "format_table",
    "format_seconds",
    "geomean",
    "WORKLOADS",
    "WorkloadSpec",
    "WorkloadResult",
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
