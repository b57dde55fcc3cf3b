"""Unit tests for the parallel host-compute backend.

The pool is a memoization layer under the DAG scheduler: pure task bodies
are precomputed on worker processes and *replayed* into the simulation.
These tests pin the contract pieces the integration parity tests can't
see directly: claim accounting, inline fallback for impure work, and the
worker-count plumbing.
"""

import operator

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.rdd.context import SparkerContext
from repro.rdd.hostpool import HostPool


def test_pool_size_one_is_disabled():
    sc = SparkerContext(ClusterConfig.bic(2), host_pool=1)
    assert sc.host_pool is None
    assert sc.reduce(sc.parallelize(range(10), 2), operator.add) == 45
    sc.stop()


def test_pure_map_job_is_precomputed_and_claimed():
    pool = HostPool(2)
    sc = SparkerContext(ClusterConfig.bic(2), host_pool=pool)
    data = list(range(100))
    result = sc.parallelize(data, 4).map(lambda x: x * x).collect()
    assert result == [x * x for x in data]
    assert pool.stats["precomputed"] > 0
    assert pool.stats["claimed"] == pool.stats["precomputed"]
    sc.stop()


def test_pool_results_match_inline_results():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(64)

    def job(host_pool):
        sc = SparkerContext(ClusterConfig.bic(2), host_pool=host_pool)
        total = sc.reduce(sc.parallelize(values, 4)
                          .map(lambda x: np.float64(x) * 3.0), operator.add)
        now = sc.now
        sc.stop()
        return total, now

    inline_total, inline_now = job(None)
    pooled_total, pooled_now = job(2)
    # Byte-equal result and identical virtual time: the pool is invisible.
    assert np.float64(pooled_total).tobytes() == \
        np.float64(inline_total).tobytes()
    assert pooled_now == inline_now


def test_inline_mode_skips_workers():
    pool = HostPool(4, mode="inline")
    sc = SparkerContext(ClusterConfig.bic(2), host_pool=pool)
    assert sum(sc.parallelize(range(20), 2).map(lambda x: x + 1)
               .collect()) == 210
    assert pool.stats["claimed"] == pool.stats["precomputed"]
    sc.stop()


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        HostPool(2, mode="threads-of- share")


def test_small_pooled_array_results_are_writable():
    # Memos under the shared-memory size threshold ship their NumPy
    # buffers in-band; they must come back *writable* (bytearray, not
    # bytes) because downstream merges mutate pooled partials in place.
    sc = SparkerContext(ClusterConfig.bic(2), host_pool=2)
    try:
        total = sc.reduce(sc.parallelize(range(8), 4)
                          .map(lambda x: np.full(16, float(x))),  # 128 B << 4 KiB
                          lambda a, b: a.__iadd__(b))
        assert total.flags.writeable
        assert total[0] == float(sum(range(8)))
    finally:
        sc.stop()
