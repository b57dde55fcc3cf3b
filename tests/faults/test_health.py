"""Executor health: scoring, quarantine windows, probation."""

import pytest

from repro.obs import ExecutorHealth

from .conftest import make_context


def advance(sc, seconds):
    sc.env.run(until=sc.env.timeout(seconds))


@pytest.fixture
def sc():
    return make_context(num_nodes=2)


# ----------------------------------------------------------------- scoring
def test_fresh_registry_is_all_healthy(sc):
    health = sc.health
    for executor in sc.executors:
        eid = executor.executor_id
        assert health.score(eid) == 0.0
        assert health.strikes(eid) == 0
        assert not health.is_quarantined(eid)
        assert health.is_available(eid)


def test_failures_accumulate_weighted_score(sc):
    health = sc.health  # a failure weighs 1.0, a straggle 0.5
    health.record_failure(0)
    health.record_straggle(0)
    assert health.score(0) == 1.5
    assert health.strikes(0) == 2
    assert not health.is_quarantined(0)  # under the threshold of 2.0


def test_success_decays_score(sc):
    health = sc.health  # each success halves the score
    health.record_failure(0)
    health.record_success(0)
    assert health.score(0) == 0.5


# -------------------------------------------------------------- quarantine
def test_threshold_quarantines_and_window_expires(sc):
    health = sc.health  # defaults: threshold 2.0, base window 5.0
    health.record_failure(0)
    assert not health.is_quarantined(0)
    health.record_failure(0)
    assert health.is_quarantined(0)
    assert not health.is_available(0)
    advance(sc, 5.0)
    assert not health.is_quarantined(0)
    assert health.on_probation(0)
    assert health.is_available(0)


def test_requarantine_window_grows_exponentially(sc):
    health = sc.health
    health.record_failure(0)
    health.record_failure(0)  # 1st quarantine: 5s
    advance(sc, 5.0)
    assert health.on_probation(0)
    health.record_failure(0)  # probation strike: 2nd quarantine, 10s
    assert health.is_quarantined(0)
    advance(sc, 9.0)
    assert health.is_quarantined(0)
    advance(sc, 1.0)
    assert not health.is_quarantined(0)


def test_quarantine_window_caps_at_max(sc):
    health = sc.health  # 5 s, doubling, at most 120 s
    for expected in (5.0, 10.0, 20.0, 40.0, 80.0, 120.0, 120.0):
        health.record_failure(0)
        health.record_failure(0)
        until = health._quarantined_until[0]
        window = until - sc.env.now
        assert window == expected
        advance(sc, window)
        assert not health.is_quarantined(0)


def test_probation_success_clears_record(sc):
    health = sc.health
    health.record_failure(0)
    health.record_failure(0)
    advance(sc, 5.0)
    assert health.on_probation(0)
    health.record_success(0)
    assert not health.on_probation(0)
    assert health.score(0) == 0.0
    assert health.strikes(0) == 0


def test_dead_executor_unavailable(sc):
    sc.executor_by_id(0).kill()
    assert not sc.health.is_available(0)
    assert not sc.health.is_available(999)


# ----------------------------------------------------------------- events
def test_health_events_on_the_bus(sc):
    events = []
    sc.event_bus.subscribe(events.append)
    health = sc.health
    health.record_failure(0)
    health.record_failure(0)
    advance(sc, 5.0)
    health.is_quarantined(0)  # expiry -> probation event
    health.record_success(0)
    statuses = [e.status for e in events if isinstance(e, ExecutorHealth)]
    assert statuses == ["failure", "failure", "quarantined", "probation",
                       "cleared"]
    quarantined = next(e for e in events if isinstance(e, ExecutorHealth)
                       and e.status == "quarantined")
    assert quarantined.until == 5.0
    assert quarantined.score == 2.0


# ------------------------------------------------------------- scheduling
def test_quarantined_executor_skipped_until_no_choice(sc):
    """Placement avoids quarantined executors while healthy peers exist,
    but still uses them rather than failing the job outright."""
    health = sc.health
    health.record_failure(0)
    health.record_failure(0)
    assert health.is_quarantined(0)
    assert sc.parallelize(range(16), 4).count() == 16
    assert sc.executor_by_id(0).tasks_run == 0
    # quarantine every executor: the job must still run somewhere
    for executor in sc.executors:
        health.record_failure(executor.executor_id)
        health.record_failure(executor.executor_id)
    assert sc.parallelize(range(8), 2).count() == 8
