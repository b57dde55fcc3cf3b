"""FaultController mechanics: arming, triggers, windows, link faults."""

import pytest

from repro.comm import CommFabric, sc_transport
from repro.comm.fabric import RecvTimeout
from repro.faults import (
    AtRingHop,
    AtStageBoundary,
    AtTime,
    ExecutorCrash,
    FaultController,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    Straggler,
)

from .conftest import make_context, run_split_agg


def test_arm_attaches():
    sc = make_context()
    controller = FaultController(sc, FaultPlan())
    assert sc.faults is None
    controller.arm()
    assert sc.faults is controller


def test_double_arm_rejected():
    sc = make_context()
    controller = FaultController(sc, FaultPlan()).arm()
    with pytest.raises(RuntimeError):
        controller.arm()
    with pytest.raises(RuntimeError):
        FaultController(sc, FaultPlan()).arm()


def test_timed_crash_kills_at_the_planned_instant():
    sc = make_context()
    eid = sc.executors[0].executor_id
    plan = FaultPlan(faults=(ExecutorCrash(eid, AtTime(0.25)),))
    controller = FaultController(sc, plan).arm()
    sc.env.run(until=0.3)
    assert not sc.executor_by_id(eid).alive
    assert len(controller.injected) == 1
    fault = controller.injected[0]
    assert fault.fault == "executor_crash"
    assert fault.trigger == "at_time"
    assert fault.executor_id == eid
    assert fault.time == pytest.approx(0.25)


def test_stage_boundary_crash_fires_on_matching_edge():
    sc = make_context()
    eid = sc.executors[-1].executor_id
    plan = FaultPlan(faults=(ExecutorCrash(
        eid, AtStageBoundary(stage_kind="result", edge="completed")),))
    FaultController(sc, plan).arm()
    assert sc.parallelize(range(20), 4).count() == 20
    assert not sc.executor_by_id(eid).alive


def test_ring_hop_crash_records_hop_detail(baseline):
    sc = make_context()
    eid = sc.executors[2].executor_id
    plan = FaultPlan(faults=(ExecutorCrash(eid, AtRingHop(1)),))
    run = run_split_agg(plan=plan)
    assert run.injected[0].trigger == "ring_hop"
    assert "hop 1" in run.injected[0].detail
    # sc above is a probe for ids only; the run uses its own context.
    assert run.result is not None


def test_straggler_window_scales_and_restores():
    sc = make_context()
    executor = sc.executors[0]
    plan = FaultPlan(faults=(Straggler(
        executor.executor_id, factor=8.0, start=0.1, duration=0.2),))
    controller = FaultController(sc, plan).arm()
    sc.env.run(until=0.2)
    assert executor.compute_scale == 8.0
    sc.env.run(until=0.4)
    assert executor.compute_scale == 1.0
    kinds = [f.fault for f in controller.injected]
    assert kinds == ["straggler", "straggler_end"]


def test_straggler_slows_the_workload_down():
    fast = run_split_agg()
    eids = [e.executor_id for e in make_context().executors]
    plans = FaultPlan(faults=tuple(
        Straggler(eid, factor=50.0, start=0.0) for eid in eids))
    slow = run_split_agg(plan=plans)
    assert slow.now > fast.now


def test_message_fault_skip_then_count():
    sc = make_context()
    plan = FaultPlan(faults=(MessageDrop(skip=2, count=1),))
    controller = FaultController(sc, plan).arm()
    fates = [controller.message_fault(0, 1, "ring/0", hop, 100.0)
             for hop in range(4)]
    assert fates == [None, None, ("drop", 0.0), None]
    assert len(controller.injected) == 1
    assert controller.injected[0].fault == "message_drop"


def test_message_fault_filters_src_dst_channel():
    sc = make_context()
    plan = FaultPlan(faults=(MessageDelay(
        delay=0.05, src=1, dst=2, channel="ring/0", count=5),))
    controller = FaultController(sc, plan).arm()
    assert controller.message_fault(0, 2, "ring/0", 0, 10.0) is None
    assert controller.message_fault(1, 3, "ring/0", 0, 10.0) is None
    assert controller.message_fault(1, 2, "ring/1", 0, 10.0) is None
    assert controller.message_fault(1, 2, "ring/0", 0, 10.0) == \
        ("delay", 0.05)


def _fabric_pair(plan):
    sc = make_context(num_nodes=2)
    controller = FaultController(sc, plan).arm()
    fabric = CommFabric(sc.cluster.network,
                        sc_transport(sc.cluster.config), faults=controller)
    fabric.register(0, sc.cluster.nodes[0])
    fabric.register(1, sc.cluster.nodes[1])
    return sc, controller, fabric


def test_fabric_drop_starves_receiver_into_timeout():
    sc, controller, fabric = _fabric_pair(
        FaultPlan(faults=(MessageDrop(count=1),)))

    def sender():
        yield from fabric.send(0, 1, "doomed", tag="t")

    def receiver():
        with pytest.raises(RecvTimeout):
            yield from fabric.recv(1, tag="t", timeout=0.05)
        return "timed out"

    sc.env.process(sender())
    proc = sc.env.process(receiver())
    assert sc.env.run(until=proc) == "timed out"
    assert fabric.dropped == 1
    assert fabric.delivered == 0
    assert controller.injected[0].fault == "message_drop"


def test_fabric_delay_postpones_delivery():
    plan = FaultPlan(faults=(MessageDelay(delay=0.2, count=1),))
    sc, controller, fabric = _fabric_pair(plan)

    def sender():
        yield from fabric.send(0, 1, "late", tag="t")

    def receiver():
        msg = yield from fabric.recv(1, tag="t")
        return msg, sc.env.now

    sc.env.process(sender())
    proc = sc.env.process(receiver())
    msg, arrived = sc.env.run(until=proc)
    assert msg == "late"
    assert arrived >= 0.2
    assert controller.injected[0].fault == "message_delay"
