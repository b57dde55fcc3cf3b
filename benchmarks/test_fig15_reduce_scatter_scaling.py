"""Figure 15: reduce-scatter scalability, SC vs MPI reference.

Paper (BIC, 6 -> 48 executors): at 256MB the scalable communicator is
nearly flat (784.13ms -> 993.35ms, 1.27x); at 256KB time grows about
proportionally with executors (1.51ms -> 7.98ms, 5.30x) because small
messages are latency-bound.
"""

from repro.bench import fig15_reduce_scatter_scaling, format_table
from repro.cluster import KB, MB


def test_fig15_reduce_scatter_scaling(record):
    rows = fig15_reduce_scatter_scaling(executor_counts=(6, 12, 24, 48),
                                        sizes=(256 * KB, 256 * MB))
    table = format_table(
        ["Message", "Executors", "SC (ms)", "MPI (ms)"],
        [(f"{int(b / KB)}KB" if b < MB else f"{int(b / MB)}MB",
          n, round(sc * 1e3, 2), round(mpi * 1e3, 2))
         for b, n, sc, mpi in rows],
        title="Figure 15: reduce-scatter scalability (BIC)")

    small = {n: sc for b, n, sc, _m in rows if b == 256 * KB}
    big = {n: sc for b, n, sc, _m in rows if b == 256 * MB}
    summary = (f"\n256KB SC growth 6->48 executors: "
               f"{small[48] / small[6]:.2f}x (paper 5.30x)"
               f"\n256MB SC growth 6->48 executors: "
               f"{big[48] / big[6]:.2f}x (paper 1.27x)")
    record("fig15_reduce_scatter_scaling", table + summary)

    # Small messages: latency-bound, grows roughly with ring length.
    assert small[48] / small[6] > 3.0
    # Large messages: bandwidth-optimal ring, nearly flat.
    assert 0.7 < big[48] / big[6] < 1.6
    # Absolute regime matches the paper's (hundreds of ms at 256MB).
    assert 0.3 < big[48] < 3.0
