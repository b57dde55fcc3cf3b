"""Fault-tolerant pipelined ring: the chaos matrix and the downgrade path.

Contract (ISSUE PR 9 tentpole): with a recovery policy armed, the
overlapped ``collective="pipelined_ring"`` path must survive every fault
class the plan vocabulary can express — crash before the ring, crash
mid-ring, link faults surfacing as recv timeouts, stragglers — and still
produce a result *bitwise identical* to the fault-free phased ring. A
lost stream downgrades to the phased detect/recompute/rebuild loop,
announced on the warning stream and on the event bus.
"""

import numpy as np
import pytest

from .conftest import expected_sum, run_announced, run_split_agg
from repro.faults import (
    AtRingHop,
    AtStageBoundary,
    ExecutorCrash,
    FaultPlan,
    MessageDrop,
    RecoveryPolicy,
    Straggler,
)
from repro.obs import ChunkStream, CollectiveDowngraded, RecoveryAction

RECOVERY = RecoveryPolicy(recv_timeout=0.25, max_ring_attempts=3)

PLAN_CLASSES = ["crash_before_ring", "crash_mid_ring", "message_drop",
                "straggler"]


def plan_for(kind: str, num_nodes: int) -> FaultPlan:
    victim = min(1, num_nodes - 1)
    if kind == "crash_before_ring":
        return FaultPlan(faults=(ExecutorCrash(
            executor_id=victim,
            trigger=AtStageBoundary("reduced_result", "completed")),))
    if kind == "crash_mid_ring":
        return FaultPlan(faults=(ExecutorCrash(
            executor_id=victim, trigger=AtRingHop(1)),))
    if kind == "message_drop":
        return FaultPlan(faults=(MessageDrop(count=2, skip=3),))
    if kind == "straggler":
        return FaultPlan(faults=(Straggler(executor_id=victim,
                                           factor=4.0),))
    raise ValueError(kind)


# ------------------------------------------------------------ chaos matrix
@pytest.mark.parametrize("parallelism", [1, 2, 4])
@pytest.mark.parametrize("num_nodes", [2, 3, 5, 8])
@pytest.mark.parametrize("kind", PLAN_CLASSES)
def test_pipelined_bitwise_under_chaos(kind, num_nodes, parallelism):
    """Every plan class, at every topology size and ring parallelism,
    must recover to the exact fault-free sum."""
    run = run_announced(plan=plan_for(kind, num_nodes), recovery=RECOVERY,
                        num_nodes=num_nodes, parallelism=parallelism,
                        collective="pipelined_ring")
    np.testing.assert_array_equal(run.result, expected_sum())


@pytest.mark.parametrize("kind", ["crash_before_ring", "crash_mid_ring"])
def test_crash_downgrades_then_recovers(kind):
    """A crash aborts the stream: the recovery record must show the
    streamed abort followed by the phased loop's recompute/rebuild."""
    run = run_announced(plan=plan_for(kind, 4), recovery=RECOVERY,
                        collective="pipelined_ring")
    np.testing.assert_array_equal(run.result, expected_sum())
    assert run.action_names[0] == "streamed_abort"
    assert "recovered" in run.action_names
    assert len(run.injected) == 1


def test_link_fault_rebuilds_without_recompute():
    """Dropped messages time out the recv: the stream aborts, and the
    rebuild runs over the *same* holders and epoch, replaying every chunk
    column without recomputing anything."""
    run = run_announced(plan=plan_for("message_drop", 4), recovery=RECOVERY,
                        collective="pipelined_ring")
    np.testing.assert_array_equal(run.result, expected_sum())
    assert "streamed_abort" in run.action_names
    # no executor died: nothing to recompute through lineage
    assert "partial_recompute" not in run.action_names


# ------------------------------------------------------- zero-perturbation
def test_armed_unfaulted_matches_clean_pipelined():
    """A recovery policy with no injected faults must not change the
    streamed path's result *or* its virtual timing."""
    clean = run_split_agg(collective="pipelined_ring")
    armed = run_announced(plan=FaultPlan(), recovery=RECOVERY,
                          collective="pipelined_ring")
    np.testing.assert_array_equal(armed.result, clean.result)
    assert armed.now == clean.now
    assert armed.action_names == []


def test_faulted_pipelined_matches_seed_phased_ring():
    """The recovered pipelined result is bitwise the seed ring's result,
    not merely numerically close."""
    seed = run_split_agg()
    run = run_announced(plan=plan_for("crash_mid_ring", 4),
                        recovery=RECOVERY, collective="pipelined_ring")
    assert run.result.tobytes() == seed.result.tobytes()


# -------------------------------------------------------------- small chunks
@pytest.mark.parametrize("kind", ["crash_mid_ring", "message_drop"])
def test_chunked_stream_recovers(kind):
    """Multi-column chunking (several sub-rings per channel) must recover
    through the same loop: the rebuild replays every column, still
    bitwise."""
    run = run_announced(plan=plan_for(kind, 4), recovery=RECOVERY,
                        collective="pipelined_ring", chunk_bytes=64.0)
    np.testing.assert_array_equal(run.result, expected_sum())


# ------------------------------------------------------------- observability
def _events_for(kind):
    from repro.cluster import ClusterConfig
    from repro.rdd import SparkerContext

    sc = SparkerContext(ClusterConfig.laptop(num_nodes=4))
    events = []
    sc.event_bus.subscribe(events.append)
    run = run_announced(plan=plan_for(kind, 4), recovery=RECOVERY, sc=sc,
                        collective="pipelined_ring")
    return run, events


def test_downgrade_emits_event_and_action():
    run, events = _events_for("crash_mid_ring")
    np.testing.assert_array_equal(run.result, expected_sum())
    downgrades = [e for e in events if isinstance(e, CollectiveDowngraded)]
    assert len(downgrades) == 1
    (event,) = downgrades
    assert event.requested == "pipelined_ring"
    assert event.actual == "ring"
    assert event.reason == "streamed_abort"
    assert "died mid-collective" in event.detail
    aborts = [e for e in events if isinstance(e, RecoveryAction)
              and e.action == "streamed_abort"]
    assert len(aborts) == 1 and aborts[0].site == "pipelined"
    # the stream really started before it was torn down
    assert any(isinstance(e, ChunkStream) for e in events)


def test_every_downgrade_warns():
    """Two downgrades of one reason in one process warn twice: what a run
    warns does not depend on which runs came before it."""
    for _ in range(2):
        with pytest.warns(RuntimeWarning, match="streamed_abort"):
            run = run_split_agg(plan=plan_for("crash_mid_ring", 4),
                                recovery=RECOVERY,
                                collective="pipelined_ring")
        np.testing.assert_array_equal(run.result, expected_sum())


# -------------------------------------------------------------- determinism
def test_chaos_run_is_reproducible():
    """Same plan, same seed: identical result, timing, and recovery log."""
    runs = [run_announced(plan=plan_for("crash_mid_ring", 5),
                          recovery=RECOVERY, num_nodes=5,
                          collective="pipelined_ring")
            for _ in range(2)]
    assert runs[0].result.tobytes() == runs[1].result.tobytes()
    assert runs[0].now == runs[1].now
    assert runs[0].action_names == runs[1].action_names
