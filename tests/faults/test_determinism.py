"""Replay determinism and the zero-perturbation contract.

Two runs of the same workload under the same ``FaultPlan`` (same seed)
must produce *byte-identical* JSONL event logs; a run with recovery
armed but no faults must be bit-identical — results and virtual times —
to a run with no fault machinery at all.
"""

import numpy as np

from repro.core import AggregationSpec
from repro.faults import (
    AtTime,
    ExecutorCrash,
    FaultController,
    FaultPlan,
    MessageDrop,
    random_plan,
)
from repro.obs import EventLogWriter, load_events
from repro.serde import SizedPayload

from .conftest import N_ITEMS, N_PARTITIONS, PAYLOAD_ARGS, WIDTH, make_context


def run_logged(path, plan=None):
    sc = make_context()
    controller = FaultController(sc, plan).arm() if plan is not None \
        else None
    writer = EventLogWriter(path)
    sc.event_bus.subscribe(writer)
    data = [SizedPayload(np.full(WIDTH, float(i))) for i in range(N_ITEMS)]
    result = sc.parallelize(data, N_PARTITIONS).split_aggregate(
        lambda: SizedPayload(np.zeros(WIDTH)),
        spec=AggregationSpec(parallelism=4),
        **PAYLOAD_ARGS)
    sc.event_bus.unsubscribe(writer)
    writer.close()
    return result.data, sc.now, controller


def crash_plan():
    sc = make_context()
    eid = sc.executors[2].executor_id
    return FaultPlan(faults=(ExecutorCrash(eid, AtTime(0.05)),
                             MessageDrop(count=1, skip=3)))


def test_same_plan_replays_to_byte_identical_log(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    result_a, now_a, _ = run_logged(a, crash_plan())
    result_b, now_b, _ = run_logged(b, crash_plan())
    assert a.read_bytes() == b.read_bytes()
    assert result_a.tobytes() == result_b.tobytes()
    assert now_a == now_b


def test_faulted_log_contains_fault_and_recovery_events(tmp_path):
    path = tmp_path / "faulted.jsonl"
    run_logged(path, crash_plan())
    kinds = {e.kind for e in load_events(path)}
    assert "fault_injected" in kinds
    assert "recovery_action" in kinds


def test_random_plan_runs_replay_identically(tmp_path):
    sc = make_context()
    eids = [e.executor_id for e in sc.executors]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    plan = random_plan(13, eids, horizon=0.06, n_crashes=1, n_drops=1)
    run_logged(a, plan)
    run_logged(b, random_plan(13, eids, horizon=0.06, n_crashes=1,
                              n_drops=1))
    assert a.read_bytes() == b.read_bytes()


def test_armed_empty_plan_is_zero_perturbation(tmp_path):
    """No faults planned: the armed run is indistinguishable, bit for bit.

    This is the contract that lets recovery machinery ship enabled: recv
    deadlines, death listeners and epoch bookkeeping must cost nothing
    observable when nothing fails.
    """
    bare, armed = tmp_path / "bare.jsonl", tmp_path / "armed.jsonl"
    result_bare, now_bare, _ = run_logged(bare, plan=None)
    result_armed, now_armed, _ = run_logged(armed, plan=FaultPlan())
    assert result_armed.tobytes() == result_bare.tobytes()
    assert now_armed == now_bare
    # Identical event records: the armed recv path may permute
    # same-instant deliveries in the log, but every record — every
    # virtual timestamp included — is the same.
    assert sorted(armed.read_bytes().splitlines()) == \
        sorted(bare.read_bytes().splitlines())
