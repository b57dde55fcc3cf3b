"""Figure 1: MLlib 8-node speedups over 1-node on BIC (the problem).

Paper: all nine workloads fall far from the perfect speedup of 8; best is
LDA-N at 2.49x, worst LR-K at 0.73x (adding machines slows it down);
average 1.25x.
"""

from repro.bench import fig1_mllib_speedup, format_table, geomean


def test_fig01_mllib_speedup(record):
    rows = fig1_mllib_speedup(iterations=2)
    table = format_table(
        ["Workload", "1-node (s)", "8-node (s)", "Speedup"],
        [(n, round(t1, 2), round(t8, 2), round(sp, 2))
         for n, t1, t8, sp in rows],
        title="Figure 1: MLlib 8-node speedup over 1-node (BIC, "
              "treeAggregate)")
    speedups = {name: sp for name, _t1, _t8, sp in rows}
    summary = (f"\ngeomean speedup: {geomean(speedups.values()):.2f} "
               f"(paper: 1.25, range 0.73-2.49)")
    record("fig01_mllib_speedup", table + summary)

    # Shape assertions (paper's qualitative findings):
    # 1. Nothing approaches the perfect speedup of 8.
    assert max(speedups.values()) < 8 / 1.5
    # 2. At least one workload gets *slower* with more machines.
    assert min(speedups.values()) < 1.0
    # 3. The kdd-family (huge aggregators) scales worst.
    assert min(speedups, key=speedups.get) in ("LR-K", "SVM-K", "SVM-K12")
    # 4. Overall scaling is poor: geomean far below 8.
    assert geomean(speedups.values()) < 2.5
