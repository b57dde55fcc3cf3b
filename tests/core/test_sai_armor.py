"""The split-aggregation driver and its per-call armor.

One driver serves every collective and every policy, so two contracts
replace the old "no-policy path is a separate, untouched copy" rule:

* an armored call that meets no fault equals the inert call — result
  bytes and virtual clock — on every collective;
* a call that raises gives everything back: no IMM aggregator stays on
  an executor, no death listener stays registered.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import AggregationSpec
from repro.faults import FaultController, FaultPlan, RecoveryPolicy
from repro.rdd import SparkerContext
from repro.serde import SizedPayload
from repro.sim import SimulationError

WIDTH = 48
SIM_BYTES = 6e6  # several pipelined chunks per segment


def aggregate(sc, spec, reduce_op=lambda a, b: a.merge(b)):
    data = [SizedPayload(np.full(WIDTH, float(i)), sim_bytes=SIM_BYTES)
            for i in range(24)]
    return sc.parallelize(data, 12).split_aggregate(
        lambda: SizedPayload(np.zeros(WIDTH), sim_bytes=SIM_BYTES),
        lambda a, x: a.merge_inplace(x),
        lambda u, i, n: u.split(i, n),
        reduce_op,
        SizedPayload.concat,
        spec,
        # an explicit IMM merge, so a broken reduce_op only breaks the ring
        merge_op=lambda a, b: a.merge(b))


def context(armed=False):
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=3))
    if armed:
        FaultController(sc, FaultPlan(), RecoveryPolicy()).arm()
    return sc


@pytest.mark.parametrize("collective",
                         ["ring", "hd", "hierarchical", "pipelined_ring"])
def test_armored_and_unfaulted_equals_inert(collective):
    """{no policy, recovery= with no faults, armed empty plan}: same bytes,
    same clock."""
    columns = {}
    for column, armed, recovery in [("inert", False, None),
                                    ("policy", False, RecoveryPolicy()),
                                    ("armed", True, None)]:
        sc = context(armed)
        result = aggregate(sc, AggregationSpec(
            collective=collective, parallelism=2, recovery=recovery))
        columns[column] = (result.data.tobytes(), sc.now)
    assert columns["policy"] == columns["inert"]
    assert columns["armed"] == columns["inert"]


def held_objects(sc):
    return {e.executor_id: sorted(e.object_manager._entries)
            for e in sc.executors
            if e.alive and e.object_manager._entries}


@pytest.mark.parametrize("armed", [False, True], ids=["inert", "armed"])
@pytest.mark.parametrize("collective", ["ring", "hd", "pipelined_ring"])
def test_a_failed_call_releases_aggregators_and_listeners(collective, armed):
    """A reduce_op that raises inside the collective — with an error no
    rebuild can answer, so it propagates under a policy too."""
    sc = context(armed)

    def broken(_a, _b):
        raise SimulationError("kernel invariant broken")

    with pytest.raises(SimulationError):
        aggregate(sc, AggregationSpec(collective=collective, parallelism=2),
                  reduce_op=broken)
    assert held_objects(sc) == {}
    assert all(not e._death_listeners for e in sc.executors)
    # The ring was stopped, not left blocked on its peers: the context
    # still runs a clean aggregation afterwards.
    again = aggregate(sc, AggregationSpec(collective=collective,
                                          parallelism=2))
    np.testing.assert_array_equal(again.data, np.full(WIDTH, 276.0))
    assert held_objects(sc) == {}


def test_inert_call_propagates_a_user_error_and_cleans_up():
    sc = context()

    def broken(_a, _b):
        raise ZeroDivisionError("user reduce_op bug")

    with pytest.raises(ZeroDivisionError):
        aggregate(sc, AggregationSpec(parallelism=2), reduce_op=broken)
    assert held_objects(sc) == {}


def test_exhausted_ring_budget_without_tree_fallback_cleans_up():
    sc = context()

    def broken(_a, _b):
        raise ZeroDivisionError("user reduce_op bug")

    policy = RecoveryPolicy(max_ring_attempts=2, tree_fallback=False)
    with pytest.raises(RuntimeError, match="tree fallback is disabled"):
        aggregate(sc, AggregationSpec(parallelism=2, recovery=policy),
                  reduce_op=broken)
    assert held_objects(sc) == {}
    assert all(not e._death_listeners for e in sc.executors)
