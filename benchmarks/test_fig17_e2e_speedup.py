"""Figure 17: end-to-end Sparker speedup over Spark, all nine workloads.

Paper: geomean 1.60x on BIC and 1.81x on AWS; the largest speedups come
from the big-aggregator workloads (SVM-K peaks at 2.62x on BIC and 3.69x
on AWS; LDA-N, LR-K, SVM-K12 all above 2x on AWS).
"""

from repro.bench import fig17_e2e_speedup, format_table, geomean


def test_fig17_e2e_speedup(record):
    rows = fig17_e2e_speedup(clusters=("BIC", "AWS"), iterations=2)
    table = format_table(
        ["Cluster", "Workload", "Spark (s)", "Sparker (s)", "Speedup"],
        [(c, w, round(a, 2), round(b, 2), round(sp, 2))
         for c, w, a, b, sp in rows],
        title="Figure 17: end-to-end Sparker speedup over Spark")
    by_cluster = {}
    for cluster, workload, _a, _b, sp in rows:
        by_cluster.setdefault(cluster, {})[workload] = sp
    summary = "".join(
        f"\n{cluster} geomean: {geomean(sps.values()):.2f}x "
        f"(paper: {'1.60x' if cluster == 'BIC' else '1.81x'}), "
        f"max {max(sps.values()):.2f}x on {max(sps, key=sps.get)}"
        for cluster, sps in by_cluster.items())
    record("fig17_e2e_speedup", table + summary)

    for cluster, sps in by_cluster.items():
        # Sparker wins on every workload.
        assert all(sp > 1.0 for sp in sps.values()), (cluster, sps)
        # The big-aggregator workloads benefit most.
        assert max(sps, key=sps.get) in ("SVM-K", "LR-K", "SVM-K12",
                                         "LDA-N")
        assert geomean(sps.values()) > 1.3
    # kdd-family workloads land above 2x on AWS (paper §5.3.1).
    aws = by_cluster["AWS"]
    for name in ("LR-K", "SVM-K", "SVM-K12"):
        assert aws[name] > 2.0
