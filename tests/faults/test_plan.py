"""FaultPlan / RecoveryPolicy validation and seeded-plan determinism."""

import pytest

from repro.faults import (
    AtRingHop,
    AtStageBoundary,
    AtTime,
    ExecutorCrash,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    RecoveryPolicy,
    Straggler,
    random_plan,
)


def test_triggers_validate():
    with pytest.raises(ValueError):
        AtTime(-0.5)
    with pytest.raises(ValueError):
        AtStageBoundary(edge="midway")
    with pytest.raises(ValueError):
        AtStageBoundary(occurrence=-1)
    with pytest.raises(ValueError):
        AtRingHop(hop=-1)
    with pytest.raises(ValueError):
        AtRingHop(hop=0, occurrence=-2)


def test_link_faults_validate():
    with pytest.raises(ValueError):
        MessageDrop(count=0)
    with pytest.raises(ValueError):
        MessageDrop(skip=-1)
    with pytest.raises(ValueError):
        MessageDelay(delay=0.0)
    with pytest.raises(ValueError):
        MessageDelay(count=0)


def test_window_faults_validate():
    with pytest.raises(ValueError):
        Straggler(0, factor=0.0)
    with pytest.raises(ValueError):
        Straggler(0, start=-1.0)
    with pytest.raises(ValueError):
        Straggler(0, duration=0.0)


def test_plan_rejects_non_faults():
    with pytest.raises(TypeError):
        FaultPlan(faults=("crash executor 3",))


def test_plan_is_immutable_and_sized():
    plan = FaultPlan(faults=[ExecutorCrash(1), MessageDrop()], seed=7)
    assert len(plan.faults) == 2
    assert isinstance(plan.faults, tuple)
    with pytest.raises(AttributeError):
        plan.seed = 8


def test_default_crash_trigger_is_time_zero():
    assert ExecutorCrash(3).trigger == AtTime(0.0)


def test_recovery_policy_validates():
    with pytest.raises(ValueError):
        RecoveryPolicy(recv_timeout=0.0)
    with pytest.raises(ValueError):
        RecoveryPolicy(max_ring_attempts=0)


def test_random_plan_is_deterministic():
    a = random_plan(42, [0, 1, 2, 3], horizon=0.1, n_crashes=2,
                    n_drops=2, n_delays=1)
    b = random_plan(42, [0, 1, 2, 3], horizon=0.1, n_crashes=2,
                    n_drops=2, n_delays=1)
    assert a == b
    assert len(a.faults) == 5
    assert a.seed == 42


def test_random_plan_seed_changes_plan():
    a = random_plan(1, [0, 1, 2, 3], horizon=0.1)
    b = random_plan(2, [0, 1, 2, 3], horizon=0.1)
    assert a != b


def test_random_plan_validates():
    with pytest.raises(ValueError):
        random_plan(0, [], horizon=1.0)
    with pytest.raises(ValueError):
        random_plan(0, [0], horizon=0.0)
