"""Figure 3: LDA-N strong scaling on BIC (Spark), decomposed.

Paper (24 -> 192 cores, whole runs): computation 1152.38s -> 342.43s
(4.47x better) while reduction *increased* 111.05s -> 187.48s (1.69x
worse) — reduction is the scalability bottleneck.
"""

from repro.bench import fig3_lda_scaling_bic, format_table
from repro.bench.experiments import breakdown_rows


def test_fig03_lda_bic_scaling(record):
    rows = fig3_lda_scaling_bic(core_counts=(24, 48, 96, 192),
                                iterations=2)
    table = format_table(
        ["Cores", "Agg-compute (s)", "Agg-reduce (s)", "Driver (s)",
         "Non-agg (s)", "Total (s)"],
        [tuple(round(v, 2) if isinstance(v, float) else v for v in row)
         for row in breakdown_rows(rows)],
        title="Figure 3: LDA-N decomposed end-to-end time on BIC (Spark)")
    first, last = rows[0][1].breakdown, rows[-1][1].breakdown
    summary = (f"\ncompute 24->192 cores: {first.agg_compute:.1f}s -> "
               f"{last.agg_compute:.1f}s "
               f"({first.agg_compute / last.agg_compute:.2f}x better; "
               f"paper 4.47x)"
               f"\nreduce  24->192 cores: {first.agg_reduce:.1f}s -> "
               f"{last.agg_reduce:.1f}s "
               f"({last.agg_reduce / first.agg_reduce:.2f}x WORSE; "
               f"paper 1.69x)")
    record("fig03_lda_bic_scaling", table + summary)

    # Computation scales down substantially...
    assert last.agg_compute < first.agg_compute / 2.5
    # ...while reduction time grows with the cluster.
    assert last.agg_reduce > first.agg_reduce
