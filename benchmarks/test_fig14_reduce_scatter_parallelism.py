"""Figure 14: reduce-scatter vs channel parallelism + topology awareness.

Paper (48 executors, 256MB): parallelism 1 -> 8 improves 3.04s -> 0.99s
(3.06x); hostname-sorted (topology-aware) ring beats id-sorted 0.99s vs
2.77s (2.76x).
"""

from repro.bench import fig14_reduce_scatter_parallelism, format_table


def test_fig14_reduce_scatter_parallelism(record):
    result = fig14_reduce_scatter_parallelism(parallelisms=(1, 2, 4, 8))
    par = result["parallelism"]
    topo = result["topology"]
    table = format_table(
        ["Parallelism", "Reduce-scatter (s)"],
        [(p, round(t, 3)) for p, t in sorted(par.items())],
        title="Figure 14: 48-executor 256MB reduce-scatter (BIC)")
    topo_table = format_table(
        ["Executor ordering", "Reduce-scatter (s)"],
        [(k, round(v, 3)) for k, v in topo.items()])
    summary = (f"\nparallelism speedup 1->8: {par[1] / par[8]:.2f}x "
               f"(paper 3.06x)"
               f"\ntopology-awareness speedup: "
               f"{topo['id-sorted'] / topo['hostname-sorted']:.2f}x "
               f"(paper 2.76x)")
    record("fig14_reduce_scatter_parallelism",
           table + "\n\n" + topo_table + summary)

    # More channels help, with diminishing returns past 4.
    assert par[1] > par[2] > par[4]
    assert par[4] / par[8] < 1.5
    assert 2.0 < par[1] / par[8] < 6.0  # paper: 3.06x
    # Hostname sorting beats registration order substantially.
    assert topo["id-sorted"] / topo["hostname-sorted"] > 1.5
