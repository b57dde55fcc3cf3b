"""Host-pool x fault-injection regression (memo keys vs retries).

The host pool memoizes task bodies under a key that includes the task
attempt and the executor id. A mid-stage executor crash strands the dead
executor's memos: the retried attempts land on other executors with a
bumped attempt counter, *miss* by construction, and must fall back to
inline execution — never replay a memo computed for the dead placement.
"""

import numpy as np

from repro.cluster import ClusterConfig
from repro.faults import AtTime, ExecutorCrash, FaultController, FaultPlan
from repro.rdd import SparkerContext
from repro.rdd.hostpool import HostPool


def run_job(host_pool, plan=None):
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2),
                        host_pool=host_pool)
    if plan is not None:
        FaultController(sc, plan).arm()
    data = np.arange(64, dtype=np.float64)
    result = sc.reduce(sc.parallelize(data, 8)
                       .map(lambda x: np.float64(x) * 2.0),
                       lambda a, b: a + b)
    stage = sc.dag.stage_log[0]
    window = (stage.submitted_at, stage.finished_at)
    sc.stop()
    return result, window


def test_crash_mid_stage_falls_back_to_inline():
    expected, (began, ended) = run_job(None)

    pool = HostPool(2, mode="inline")
    plan = FaultPlan(faults=(ExecutorCrash(
        0, AtTime(began + 0.5 * (ended - began))),))
    result, _window = run_job(pool, plan)
    assert np.float64(result).tobytes() == np.float64(expected).tobytes()
    # The dead executor's memos went unclaimed; the retried attempts
    # missed the memo table and ran inline.
    assert pool.stats["inline"] > 0
    assert pool.stats["claimed"] < pool.stats["precomputed"]


def test_unfaulted_pool_claims_everything():
    pool = HostPool(2, mode="inline")
    result, _ = run_job(pool)
    assert pool.stats["inline"] == 0
    assert pool.stats["claimed"] == pool.stats["precomputed"]
