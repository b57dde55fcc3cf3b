"""Recovery across the split-aggregation path.

The acceptance bar: kill any single executor at any point of the
aggregation and the result is *bit-identical* to the fault-free run (the
workload is integer-valued, so float addition is exact and any recovery
regrouping that changes the value is a real bug, not roundoff).
"""

import warnings

import numpy as np
import pytest

from repro.comm.ring import ScalableCommunicator
from repro.core import AggregationSpec
from repro.faults import (
    AtRingHop,
    AtStageBoundary,
    AtTime,
    ExecutorCrash,
    FaultController,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    RecoveryPolicy,
)
from repro.rdd import ExecutorLost, JobFailed
from repro.serde import SizedPayload
from repro.sim import SimulationError

from .conftest import (
    N_ITEMS,
    N_PARTITIONS,
    PAYLOAD_ARGS,
    WIDTH,
    make_context,
    run_split_agg,
)

#: one probe context's executor count (laptop x4 = 8 executors)
N_EXECUTORS = len(make_context().executors)

#: crash instants covering stage 1 (compute), the ring, and the gather
CRASH_TIMES = (0.001, 0.02, 0.05)


@pytest.mark.parametrize("slot", range(N_EXECUTORS))
@pytest.mark.parametrize("when", CRASH_TIMES)
def test_single_crash_matrix_bit_identical(baseline, slot, when):
    sc = make_context()
    eid = sc.executors[slot].executor_id
    plan = FaultPlan(faults=(ExecutorCrash(eid, AtTime(when)),))
    run = run_split_agg(plan=plan)
    assert run.result.tobytes() == baseline.result.tobytes()
    assert len(run.injected) == 1
    assert run.injected[0].executor_id == eid


@pytest.mark.parametrize("hop", (0, 1, 2))
def test_mid_ring_crash_recovers(baseline, hop):
    sc = make_context()
    eid = sc.executors[1].executor_id
    plan = FaultPlan(faults=(ExecutorCrash(eid, AtRingHop(hop)),))
    run = run_split_agg(plan=plan)
    assert run.result.tobytes() == baseline.result.tobytes()
    names = run.action_names
    assert "ring_abort" in names
    assert "partial_recompute" in names
    assert names[-1] == "recovered"


def test_crash_between_partials_and_ring(baseline):
    sc = make_context()
    eid = sc.executors[2].executor_id
    plan = FaultPlan(faults=(ExecutorCrash(eid, AtStageBoundary(
        stage_kind="reduced_result", edge="completed")),))
    run = run_split_agg(plan=plan)
    assert run.result.tobytes() == baseline.result.tobytes()
    # The loss is seen before any ring started: recompute, no abort.
    assert run.action_names[0] == "partial_recompute"
    assert "ring_abort" not in run.action_names
    assert run.action_names[-1] == "recovered"


def test_two_sequential_crashes_recover(baseline):
    sc = make_context()
    ids = [e.executor_id for e in sc.executors]
    plan = FaultPlan(faults=(
        ExecutorCrash(ids[1], AtTime(0.045)),
        ExecutorCrash(ids[5], AtTime(0.08)),
    ))
    run = run_split_agg(plan=plan)
    assert run.result.tobytes() == baseline.result.tobytes()
    recomputes = [a for a in run.actions if a.action == "partial_recompute"]
    assert len(recomputes) >= 1


def test_message_drop_detected_by_timeout(baseline):
    plan = FaultPlan(faults=(MessageDrop(count=2),))
    run = run_split_agg(
        plan=plan, recovery=RecoveryPolicy(recv_timeout=0.05))
    assert run.result.tobytes() == baseline.result.tobytes()
    names = run.action_names
    # The executor is alive, only messages were lost: rebuild, no
    # lineage recompute.
    assert "ring_abort" in names
    assert "partial_recompute" not in names
    assert names[-1] == "recovered"


def test_one_drop_loses_a_whole_hop_message(baseline):
    """A hop is one message: one verdict, and ``MessageDrop(count=1)``
    takes its four lanes together (WIDTH 64 over 8 ranks x 4 lanes: 16 B
    a lane). The armored driver still returns the fault-free bytes."""
    plan = FaultPlan(faults=(MessageDrop(count=1),))
    run = run_split_agg(
        plan=plan, recovery=RecoveryPolicy(recv_timeout=0.05))
    assert run.result.tobytes() == baseline.result.tobytes()
    (drop,) = run.injected
    assert drop.fault == "message_drop" and drop.detail == "64B hop 0"
    assert "partial_recompute" not in run.action_names
    assert run.action_names[-1] == "recovered"


def test_message_delay_is_tolerated(baseline):
    plan = FaultPlan(faults=(MessageDelay(delay=0.01, count=3),))
    run = run_split_agg(plan=plan)
    assert run.result.tobytes() == baseline.result.tobytes()
    # Delays below the recv timeout never abort anything.
    assert run.action_names == []
    assert run.now >= baseline.now


def test_a_spent_ring_budget_raises_job_failed():
    # Drop every ring message forever: each rebuild times out again until
    # the attempt budget is gone, and then the call fails loudly.
    sc = make_context()
    controller = FaultController(
        sc, FaultPlan(faults=(MessageDrop(count=10**6),)),
        RecoveryPolicy(recv_timeout=0.02, max_ring_attempts=2)).arm()
    with pytest.raises(JobFailed, match="max_ring_attempts=2") as failed:
        run_split_agg(sc=sc)
    assert isinstance(failed.value.__cause__, ExecutorLost)
    assert [a.action for a in controller.actions] == [
        "ring_abort", "ring_rebuild", "ring_abort"]


def test_total_cluster_loss_fails_the_job():
    sc = make_context()
    plan = FaultPlan(faults=tuple(
        ExecutorCrash(e.executor_id, AtTime(0.02)) for e in sc.executors))
    with pytest.raises((JobFailed, ExecutorLost)):
        run_split_agg(plan=plan)


def test_recovered_action_carries_virtual_time_cost(baseline):
    sc = make_context()
    eid = sc.executors[3].executor_id
    plan = FaultPlan(faults=(ExecutorCrash(eid, AtTime(0.05)),))
    run = run_split_agg(plan=plan)
    recovered = run.actions[-1]
    assert recovered.action == "recovered"
    assert recovered.seconds > 0
    # Recovery costs extra virtual time over the fault-free run.
    assert run.now > baseline.now


def test_explicit_recovery_without_controller(baseline):
    """The ``recovery=`` argument alone arms the FT path (no injection)."""
    run = run_split_agg(recovery=RecoveryPolicy())
    assert run.result.tobytes() == baseline.result.tobytes()
    assert run.now == baseline.now  # armed but unfaulted: zero perturbation


# --------------------------------------------------- scheduler catch-alls
def test_poison_task_fails_fast_with_its_own_error():
    """The original task error surfaces; the stage is not resubmitted."""
    sc = make_context()

    def explode(_x):
        raise ValueError("poison task")

    with pytest.raises(ValueError, match="poison task"):
        sc.parallelize(range(8), 4).map(explode).collect()
    # The task retry budget failed the job on the first stage attempt —
    # stage-level resubmission did not mask the real failure.
    result_stages = [s for s in sc.dag.stage_log if s.kind == "result"]
    assert len(result_stages) == 1


def test_keyboard_style_interrupts_not_swallowed():
    """SimulationError from the kernel is never treated as a task failure."""
    sc = make_context()
    original = sc.dag._run_tasks

    def broken(*args, **kwargs):
        raise SimulationError("kernel invariant broken")
        yield  # pragma: no cover

    sc.dag._run_tasks = broken
    with pytest.raises(SimulationError):
        sc.parallelize(range(4), 2).count()


def _flaky_once_stream(sc, recovery=None):
    """A pipelined aggregation whose stage fails once and is resubmitted:
    the stream sees merges of both attempts, so the placement is off the
    plan and the driver tears the stream down itself (the one case where
    the teardown, not a death listener, aborts a live collective)."""
    failed = []

    def seq_op(acc, x):
        if x.data[0] == 5.0 and not failed:
            failed.append(True)
            raise ValueError("flaky task")
        return acc.merge_inplace(x)

    data = [SizedPayload(np.full(WIDTH, float(i))) for i in range(N_ITEMS)]
    return sc.parallelize(data, N_PARTITIONS).split_aggregate(
        lambda: SizedPayload(np.zeros(WIDTH)),
        spec=AggregationSpec(collective="pipelined_ring", recovery=recovery),
        **dict(PAYLOAD_ARGS, seq_op=seq_op))


@pytest.mark.parametrize("recovery", [None, RecoveryPolicy()],
                         ids=["inert", "armed"])
def test_resubmitted_stage_downgrades_the_stream(baseline, recovery):
    sc = make_context()
    with pytest.warns(RuntimeWarning, match="placement_deviation"):
        result = _flaky_once_stream(sc, recovery)
    assert result.data.tobytes() == baseline.result.tobytes()
    assert all(not e.object_manager._entries for e in sc.executors)


@pytest.mark.parametrize("recovery", [None, RecoveryPolicy()],
                         ids=["inert", "armed"])
@pytest.mark.parametrize("error", [KeyboardInterrupt, SimulationError])
def test_stream_teardown_does_not_swallow_kernel_errors(monkeypatch, error,
                                                        recovery):
    """Draining an aborted stream absorbs what the abort produced and
    nothing else: a kernel error or a Ctrl-C raised meanwhile surfaces."""
    real_abort = ScalableCommunicator.abort

    def abort_then_break(self, cause="communicator aborted"):
        real_abort(self, cause)

        def explode(_event):
            raise error("raised while the stream drains")

        bomb = self.env.event()
        bomb.add_callback(explode)
        bomb.succeed()

    monkeypatch.setattr(ScalableCommunicator, "abort", abort_then_break)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(error):
            _flaky_once_stream(make_context(), recovery)
