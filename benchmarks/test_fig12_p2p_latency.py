"""Figure 12: point-to-point latency of BM / SC / MPI messaging.

Paper (BIC): MPI 15.94us; scalable communicator 72.73us (4.56x MPI);
BlockManager-based messaging 3861.25us (242.24x MPI) — the measurement
that justified building the communicator from scratch (§4.1).
"""

import pytest

from repro.bench import fig12_p2p_latency, format_table


def test_fig12_p2p_latency(record):
    latencies = fig12_p2p_latency()
    table = format_table(
        ["Stack", "One-way latency (us)", "vs MPI"],
        [(name, round(latencies[name] * 1e6, 2),
          f"{latencies[name] / latencies['MPI']:.2f}x")
         for name in ("BM", "SC", "MPI")],
        title="Figure 12: point-to-point one-way latency (BIC)")
    record("fig12_p2p_latency", table +
           "\n(paper: BM 3861.25us / 242.24x, SC 72.73us / 4.56x, "
           "MPI 15.94us)")

    assert latencies["MPI"] == pytest.approx(15.94e-6, rel=0.02)
    assert latencies["SC"] == pytest.approx(72.73e-6, rel=0.02)
    assert latencies["BM"] == pytest.approx(3861.25e-6, rel=0.02)
    assert latencies["BM"] / latencies["MPI"] == pytest.approx(242.24,
                                                               rel=0.05)
