"""Figure 2: per-workload time decomposition on 8-node BIC.

Paper: tree aggregation occupies 67.69% (geomean) of end-to-end time —
aggregation is MLlib's hot-spot. Our harness measures the training loop
only (the paper's logs cover the whole application), so the aggregation
share runs higher; the qualitative claim under test is that aggregation
dominates every workload.
"""

from repro.bench import fig2_time_breakdown, format_table, geomean


def test_fig02_time_breakdown(record):
    rows = fig2_time_breakdown(iterations=2)
    table = format_table(
        ["Workload", "Aggregation (s)", "Non-agg (s)", "Driver (s)",
         "Agg share"],
        [(name, round(b.aggregation, 2), round(b.non_agg, 2),
          round(b.driver, 2), f"{b.agg_fraction * 100:.1f}%")
         for name, b in rows],
        title="Figure 2: time decomposition per workload (8-node BIC)")
    fractions = [b.agg_fraction for _name, b in rows]
    summary = (f"\ngeomean aggregation share: "
               f"{geomean(fractions) * 100:.1f}% "
               f"(paper: 67.7% of whole-application time)")
    record("fig02_time_breakdown", table + summary)

    # Aggregation is the hot-spot in every workload.
    for name, b in rows:
        assert b.agg_fraction > 0.5, f"{name}: aggregation not dominant"
    assert geomean(fractions) > 0.6
