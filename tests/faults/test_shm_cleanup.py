"""Shared-memory lifecycle under chaos: no leaked segments, ever.

The host pool ships NumPy memo payloads through named
``multiprocessing.shared_memory`` segments. The lifecycle contract
(DESIGN.md §13): the driver unlinks each segment the moment it attaches,
orphans of workers that died before their frame landed are reaped by
deterministic name, and an atexit sweep releases whatever mappings the
simulation still pinned. These tests assert the observable half of that
contract — ``/dev/shm`` holds no ``sparker_hp_*`` entries after pooled
runs, including runs whose simulated executors crash mid-stage.
"""

import os

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.faults import AtTime, ExecutorCrash, FaultController, FaultPlan
from repro.rdd import SparkerContext
from repro.rdd.hostpool import (HostPool, _live_segments, _reap_orphan,
                                _segment_name, _shared_memory,
                                _sweep_segments)

pytestmark = pytest.mark.skipif(
    _shared_memory is None or not hasattr(os, "fork"),
    reason="shared memory or fork unavailable")


def leaked_segments():
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    return [f for f in os.listdir(shm_dir) if f.startswith("sparker_hp_")]


def run_job(host_pool, plan=None):
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2),
                        host_pool=host_pool)
    if plan is not None:
        FaultController(sc, plan).arm()
    data = np.arange(256, dtype=np.float64)
    result = sc.reduce(sc.parallelize(data, 8)
                       .map(lambda x: np.full(1024, x)),  # >4KiB: shared memory
                       lambda a, b: a + b)
    stage = sc.dag.stage_log[0]
    window = (stage.submitted_at, stage.finished_at)
    sc.stop()
    return result, window


def test_forked_pool_leaves_no_segments():
    expected, _ = run_job(None)
    result, _ = run_job(HostPool(2, mode="fork"))
    assert result.tobytes() == expected.tobytes()
    assert leaked_segments() == []


def test_crashed_executor_chaos_leaves_no_segments():
    expected, (began, ended) = run_job(None)
    plan = FaultPlan(faults=(ExecutorCrash(
        0, AtTime(began + 0.5 * (ended - began))),))
    result, _ = run_job(HostPool(2, mode="fork"), plan)
    assert result.tobytes() == expected.tobytes()
    assert leaked_segments() == []
    # Whatever mappings the run pinned, the sweep releases (or parks
    # only entries whose arrays the simulation still references).
    _sweep_segments()
    assert leaked_segments() == []


def test_reap_orphan_of_dead_worker():
    # A worker that dies between creating its segment and flushing the
    # frame leaves a named orphan; the driver reaps it by its
    # deterministic name.
    pid, index = os.getpid(), 987654
    seg = _shared_memory.SharedMemory(
        name=_segment_name(pid, index), create=True, size=4096)
    seg.close()
    assert _segment_name(pid, index) in leaked_segments()
    _reap_orphan(pid, index)
    assert _segment_name(pid, index) not in leaked_segments()
    # Reaping a name that never existed is a no-op.
    _reap_orphan(pid, index)


def test_sweep_releases_consumed_mappings():
    import gc

    run_job(HostPool(2, mode="fork"))
    # Once the job's arrays are garbage (the context is stopped and the
    # result dropped; collect() clears scheduler reference cycles), the
    # sweep must release every mapping this job parked.
    gc.collect()
    _sweep_segments()
    assert len(_live_segments) == 0
    assert leaked_segments() == []
