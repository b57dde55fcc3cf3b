"""FaultController x host pool x fault-tolerant pipelined ring.

The host pool memoizes the reduced-result stage's provably-pure task
bodies; the fault controller crashes executors mid-stage; the pipelined
collective streams the merged aggregators. Composed, the three must
still yield the seed ring's exact bytes: stranded memos of a dead
placement fall back to inline execution, the resubmitted stage re-merges
on the survivors, and the downgraded ring replays every chunk column.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.rdd import SparkerContext
from repro.rdd.hostpool import HostPool

from .conftest import expected_sum, run_announced, run_split_agg
from .test_pipelined_recovery import PLAN_CLASSES, RECOVERY, plan_for

POOL_SIZES = [1, 2, 8]


def pooled_context(pool_size: int) -> SparkerContext:
    return SparkerContext(ClusterConfig.laptop(num_nodes=4),
                          host_pool=HostPool(pool_size, mode="inline"))


@pytest.mark.parametrize("kind", PLAN_CLASSES)
@pytest.mark.parametrize("pool_size", POOL_SIZES)
def test_pooled_pipelined_bitwise_under_chaos(pool_size, kind):
    run = run_announced(plan=plan_for(kind, 4), recovery=RECOVERY,
                        sc=pooled_context(pool_size),
                        collective="pipelined_ring")
    np.testing.assert_array_equal(run.result, expected_sum())


@pytest.mark.parametrize("pool_size", POOL_SIZES)
def test_pooled_parity_with_poolless_run(pool_size):
    """Pool sizes must be invisible: same result, timing, and recovery
    log as the pool-less chaos run."""
    plan = plan_for("crash_mid_ring", 4)
    bare = run_announced(plan=plan, recovery=RECOVERY,
                         collective="pipelined_ring")
    pooled = run_announced(plan=plan_for("crash_mid_ring", 4),
                           recovery=RECOVERY,
                           sc=pooled_context(pool_size),
                           collective="pipelined_ring")
    assert pooled.result.tobytes() == bare.result.tobytes()
    assert pooled.now == bare.now
    assert pooled.action_names == bare.action_names


@pytest.mark.parametrize("pool_size", POOL_SIZES)
def test_pooled_clean_pipelined_unperturbed(pool_size):
    """No faults: the pool changes nothing observable about the stream."""
    bare = run_split_agg(collective="pipelined_ring")
    pooled = run_split_agg(sc=pooled_context(pool_size),
                           collective="pipelined_ring")
    assert pooled.result.tobytes() == bare.result.tobytes()
    assert pooled.now == bare.now
