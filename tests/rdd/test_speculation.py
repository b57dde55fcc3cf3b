"""Speculative execution: straggler cloning, commit fencing, determinism.

Spark's ``spark.speculation`` analogue: with ``sc.speculation`` armed, a
monitor clones attempts running far past the median completed duration
onto healthy executors; the first copy to reach the commit gate wins and
the loser is fenced *before* it can emit output or publish accumulator
updates. Unarmed (the default), none of the machinery exists and every
run is bit-identical to the seed scheduler.
"""

import pytest

from repro.cluster import ClusterConfig
from repro.obs import SpeculativeAttempt
from repro.rdd import SparkerContext, SpeculationPolicy
from repro.rdd.costing import Costed
from repro.rdd.speculation import (
    SPECULATIVE_ATTEMPT_BASE,
    CommitGate,
    SpeculationWave,
)

ELEMENTS = 32
PARTITIONS = 8
COST = 0.05


def run_map_job(speculate=False, straggler_factor=None, listener=None):
    """One costed map job; returns (results, makespan, accumulator)."""
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=4))
    if speculate:
        sc.speculation = SpeculationPolicy()
    if straggler_factor is not None:
        sc.executor_by_id(0).compute_scale = straggler_factor
    if listener is not None:
        sc.event_bus.subscribe(listener)
    acc = sc.accumulator(0, name="adds")

    def bump(x):
        acc.add(1)
        return x * 2

    result = (sc.parallelize(range(ELEMENTS), PARTITIONS)
              .map(Costed(bump, COST)).collect())
    return result, sc.now, acc.value


# ------------------------------------------------------- zero-perturbation
def test_unarmed_is_the_default():
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    assert sc.speculation is None


def test_armed_without_stragglers_is_invisible():
    """Monitor wakeups alone must not shift results, time, or counts."""
    base_result, base_now, base_acc = run_map_job(speculate=False)
    armed_result, armed_now, armed_acc = run_map_job(speculate=True)
    assert armed_result == base_result
    assert armed_now == base_now
    assert armed_acc == base_acc == ELEMENTS


def test_armed_without_stragglers_launches_nothing():
    events = []
    run_map_job(speculate=True, listener=events.append)
    assert [e for e in events if isinstance(e, SpeculativeAttempt)] == []


# ------------------------------------------------------------- speculation
def test_clone_rescues_straggler_makespan():
    _, slow_now, _ = run_map_job(straggler_factor=8.0)
    events = []
    result, spec_now, acc = run_map_job(speculate=True, straggler_factor=8.0,
                                        listener=events.append)
    assert result == [x * 2 for x in range(ELEMENTS)]
    assert acc == ELEMENTS
    assert spec_now < slow_now
    actions = [e.action for e in events
               if isinstance(e, SpeculativeAttempt)]
    assert "launched" in actions and "speculative_won" in actions


def test_speculative_attempt_numbers_disjoint_from_retries():
    events = []
    run_map_job(speculate=True, straggler_factor=8.0,
                listener=events.append)
    for event in events:
        if isinstance(event, SpeculativeAttempt):
            assert event.attempt >= SPECULATIVE_ATTEMPT_BASE
            assert event.backup_executor_id != event.executor_id


def test_accumulator_exactly_once_under_race():
    """The losing copy is fenced before its accumulator updates publish:
    duplicated attempts never double-count."""
    for factor in (2.0, 4.0, 16.0):
        _, _, acc = run_map_job(speculate=True, straggler_factor=factor)
        assert acc == ELEMENTS, f"double count at factor {factor}"


# -------------------------------------------------------------- determinism
def test_two_runs_identical_event_streams():
    """Fixed seed, fixed plan: the full serialized event stream (clone
    launches, race outcomes, timings) must be identical across runs."""
    def capture():
        events = []
        result, now, acc = run_map_job(speculate=True, straggler_factor=8.0,
                                       listener=events.append)
        return result, now, acc, [e.to_record() for e in events]

    first, second = capture(), capture()
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]
    assert first[3] == second[3]


# --------------------------------------------------- split_aggregate fencing
def test_imm_waves_never_speculate():
    """Reduced-result stages merge into shared mutable objects; cloning
    their tasks would double-merge. The wave must exclude them — and the
    aggregation still completes exactly."""
    import numpy as np

    from repro import AggregationSpec
    from repro.serde import SizedPayload

    sc = SparkerContext(ClusterConfig.laptop(num_nodes=4))
    sc.speculation = SpeculationPolicy()
    sc.executor_by_id(0).compute_scale = 8.0
    events = []
    sc.event_bus.subscribe(events.append)
    data = [SizedPayload(np.full(16, float(i))) for i in range(24)]
    result = sc.parallelize(data, 8).split_aggregate(
        lambda: SizedPayload(np.zeros(16)),
        seq_op=lambda a, x: a.merge_inplace(x),
        split_op=lambda u, i, n: u.split(i, n),
        reduce_op=lambda a, b: a.merge(b),
        concat_op=SizedPayload.concat,
        spec=AggregationSpec(parallelism=2))
    np.testing.assert_array_equal(
        result.data, np.sum([np.full(16, float(i)) for i in range(24)],
                            axis=0))
    stage_ids = {e.stage_id for e in events
                 if isinstance(e, SpeculativeAttempt)}
    imm_stages = {s.stage_id for s in sc.dag.stage_log
                  if s.kind == "reduced_result"}
    assert not (stage_ids & imm_stages)


# ------------------------------------------------------------ unit: pieces
def test_commit_gate_first_claim_wins():
    gate = CommitGate()
    assert gate.claim(3, (0, 0))
    assert not gate.claim(3, (1, 100))
    assert gate.claim(3, (0, 0))  # idempotent for the holder
    assert gate.winner(3) == (0, 0)


def test_commit_gate_release_reopens_only_for_holder():
    gate = CommitGate()
    gate.claim(3, (0, 0))
    gate.release(3, (1, 100))  # loser's release is a no-op
    assert gate.winner(3) == (0, 0)
    gate.release(3, (0, 0))
    assert gate.winner(3) is None
    assert gate.claim(3, (1, 100))


def test_threshold_needs_quorum_and_runners():
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    wave = SpeculationWave(sc.env, total=4)  # quorum ceil(0.75 * 4) = 3
    assert wave.threshold() is None  # no evidence at all
    wave.durations.extend([1.0, 1.0, 2.0])
    assert wave.threshold() is None  # quorum met but nothing runs
    wave.running[7] = (0.0, 1, None)
    assert wave.threshold() == pytest.approx(1.5)  # 1.5 x the median
    wave.durations.append(4.0)  # an even count: the middle two's mean
    assert wave.threshold() == pytest.approx(1.5 * 1.5)
    del wave.durations[2:]
    assert wave.threshold() is None  # back below the quorum
