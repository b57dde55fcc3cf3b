"""Figure 18: LDA-N strong scaling on AWS, Spark vs Sparker, decomposed.

Paper: at 8 cores reduction is 4.19x faster under Sparker (26.36s vs
6.29s); at 960 cores it is 7.22x faster (111.26s vs 15.41s) — the
advantage grows with scale. At 960 cores IMM also makes Sparker's
computation part faster (58.39s vs 40.49s), and the driver becomes the
next bottleneck (§6).
"""

from repro.bench import fig18_sparker_scaling, format_table


def test_fig18_sparker_scaling(record):
    rows = fig18_sparker_scaling(core_counts=(8, 96, 192, 480, 960),
                                 iterations=2)
    lines = []
    for cores, spark, sparker in rows:
        for label, result in (("Spark", spark), ("Sparker", sparker)):
            b = result.breakdown
            lines.append((cores, label, round(b.agg_compute, 2),
                          round(b.agg_reduce, 2), round(b.driver, 2),
                          round(b.non_agg, 2), round(result.end_to_end, 2)))
    table = format_table(
        ["Cores", "Engine", "Agg-compute", "Agg-reduce", "Driver",
         "Non-agg", "Total"],
        lines,
        title="Figure 18: LDA-N on AWS, Spark (tree) vs Sparker (split)")

    first_cores, first_spark, first_sparker = rows[0]
    last_cores, last_spark, last_sparker = rows[-1]
    first_ratio = (first_spark.breakdown.agg_reduce
                   / first_sparker.breakdown.agg_reduce)
    last_ratio = (last_spark.breakdown.agg_reduce
                  / last_sparker.breakdown.agg_reduce)
    summary = (f"\nreduction speedup at {first_cores} cores: "
               f"{first_ratio:.2f}x (paper 4.19x)"
               f"\nreduction speedup at {last_cores} cores: "
               f"{last_ratio:.2f}x (paper 7.22x)")
    record("fig18_sparker_scaling", table + summary)

    # Sparker's reduction is faster at every scale...
    for _cores, spark, sparker in rows:
        assert sparker.breakdown.agg_reduce < spark.breakdown.agg_reduce
    # ...and its advantage grows with the cluster.
    assert last_ratio > first_ratio
    # At the largest scale the driver is a visible share of Sparker's time
    # (the paper's §6 "new bottleneck" observation): a share that was
    # negligible at 8 cores grows by an order of magnitude.
    sparker_big = last_sparker.breakdown
    sparker_small = first_sparker.breakdown
    big_share = sparker_big.driver / sparker_big.total
    small_share = sparker_small.driver / sparker_small.total
    assert big_share > 0.08
    assert big_share > 10 * small_share
