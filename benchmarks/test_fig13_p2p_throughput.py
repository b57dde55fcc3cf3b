"""Figure 13: p2p throughput vs message size and channel parallelism.

Paper (BIC): MPI peaks at 1185.43 MB/s; the scalable communicator needs
multiple channels to fill the NIC and reaches 1151.80 MB/s (97.1% of line
rate) with 4; bandwidth degrades slightly for very large messages (JVM GC).
"""

from repro.bench import fig13_p2p_throughput, format_table
from repro.cluster import KB, MB


def test_fig13_p2p_throughput(record):
    rows = fig13_p2p_throughput()
    table = format_table(
        ["Message", "MPI (MB/s)", "SC-1", "SC-2", "SC-4"],
        [(f"{int(nbytes / KB)}KB" if nbytes < MB
          else f"{int(nbytes / MB)}MB",
          round(cell["MPI"] / MB, 1), round(cell["SC-1"] / MB, 1),
          round(cell["SC-2"] / MB, 1), round(cell["SC-4"] / MB, 1))
         for nbytes, cell in rows],
        title="Figure 13: point-to-point throughput (BIC)")
    big = dict(rows)[256 * MB]
    summary = (f"\nat 256MB: SC-4 reaches "
               f"{big['SC-4'] / big['MPI'] * 100:.1f}% of MPI line rate "
               f"(paper: 97.1%)")
    record("fig13_p2p_throughput", table + summary)

    # Large-message shape: MPI ~ line rate; SC needs parallel channels.
    assert big["MPI"] / MB > 1100
    assert big["SC-1"] < big["SC-2"] < big["SC-4"] <= big["MPI"]
    assert 0.90 < big["SC-4"] / big["MPI"] < 1.0
    # GC drag: SC-4 bandwidth dips from mid-size to 256MB.
    mid = dict(rows)[8 * MB]
    assert big["SC-4"] < mid["SC-4"]
    # Small messages are latency-bound: far below line rate everywhere.
    small = dict(rows)[1 * KB]
    assert small["SC-1"] / MB < 20
