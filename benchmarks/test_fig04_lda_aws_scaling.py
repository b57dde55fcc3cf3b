"""Figure 4: LDA-N strong scaling on AWS (Spark), decomposed.

Paper (8 -> 960 cores): computation 272.36s -> 58.39s (4.66x better),
reduction 26.38s -> 111.23s (4.22x worse); the reduction share of
end-to-end time grows from 6.95% to 44.55% — reduction gradually
dominates and caps scalability.
"""

from repro.bench import fig4_lda_scaling_aws, format_table
from repro.bench.experiments import breakdown_rows


def test_fig04_lda_aws_scaling(record):
    rows = fig4_lda_scaling_aws(core_counts=(8, 96, 192, 480, 960),
                                iterations=2)
    table = format_table(
        ["Cores", "Agg-compute (s)", "Agg-reduce (s)", "Driver (s)",
         "Non-agg (s)", "Total (s)"],
        [tuple(round(v, 2) if isinstance(v, float) else v for v in row)
         for row in breakdown_rows(rows)],
        title="Figure 4: LDA-N decomposed end-to-end time on AWS (Spark)")
    first, last = rows[0][1].breakdown, rows[-1][1].breakdown
    share_first = first.agg_reduce / first.total
    share_last = last.agg_reduce / last.total
    summary = (f"\nreduce share of end-to-end: {share_first * 100:.1f}% "
               f"at 8 cores -> {share_last * 100:.1f}% at 960 cores "
               f"(paper: 6.95% -> 44.55%)")
    record("fig04_lda_aws_scaling", table + summary)

    assert last.agg_compute < first.agg_compute / 2.5
    assert last.agg_reduce > first.agg_reduce
    # Reduction gradually dominates with scale.
    assert share_last > 2 * share_first
    assert share_last > 0.3
