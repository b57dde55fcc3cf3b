"""Determinism guarantees of the host-performance layer.

Two seeded runs of the same workload must produce byte-identical trace
streams and virtual times, and the host pool must be invisible to every
simulated quantity: pool sizes 1/2/8 train byte-equal weights in exactly
the same virtual time as the serial path (the DESIGN.md §9 bit-identity
contract). The pool is the session's (``SparkerSession(config,
host_pool=n)``), never the spec's.
"""

import numpy as np

from repro import SparkerSession
from repro.cluster import ClusterConfig
from repro.obs import EventLogWriter


def _train(tmp_path, tag, **kwargs):
    log = tmp_path / f"{tag}.jsonl"
    writer = EventLogWriter(log)
    try:
        result = SparkerSession(ClusterConfig.bic(2)).run(
            "LR-A", aggregation="tree", iterations=2, listener=writer,
            **kwargs)
    finally:
        writer.close()
    return result, log.read_bytes()


def test_two_runs_identical_stream_and_virtual_time(tmp_path):
    first, stream_a = _train(tmp_path, "a")
    second, stream_b = _train(tmp_path, "b")
    assert stream_a == stream_b
    assert first.end_to_end == second.end_to_end
    assert first.final_loss == second.final_loss
    assert (np.asarray(first.final_weights).tobytes()
            == np.asarray(second.final_weights).tobytes())
    assert first.sim_events == second.sim_events


def test_pool_sizes_bit_identical():
    config = ClusterConfig.bic(2)
    serial = SparkerSession(config).run("LR-A", aggregation="tree",
                                        iterations=2)
    reference = np.asarray(serial.final_weights).tobytes()
    for size in (1, 2, 8):
        pooled = SparkerSession(config, host_pool=size).run(
            "LR-A", aggregation="tree", iterations=2)
        assert pooled.end_to_end == serial.end_to_end, f"pool={size}"
        assert pooled.final_loss == serial.final_loss, f"pool={size}"
        assert (np.asarray(pooled.final_weights).tobytes()
                == reference), f"pool={size}"


def test_split_aggregation_pool_parity():
    config = ClusterConfig.bic(4)
    serial = SparkerSession(config).run("LR-C", aggregation="split",
                                        iterations=2)
    pooled = SparkerSession(config, host_pool=2).run(
        "LR-C", aggregation="split", iterations=2)
    assert pooled.end_to_end == serial.end_to_end
    assert (np.asarray(pooled.final_weights).tobytes()
            == np.asarray(serial.final_weights).tobytes())
