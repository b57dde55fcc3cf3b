"""The recorded stream, byte for byte.

How an event is *built* may change (PR 19 made it a frozen slots record
with a generated constructor); what a run *records* may not: same events,
same fields, same values, same order. One fixed small run — a trained
split aggregation plus one faulted, recovered pipelined ring — is
serialized and hashed. Floats are printed by ``repr``, so the digest is
only comparable on the host fingerprint it was taken on (the rule
``benchmarks/ledger/pins.json`` uses); elsewhere the test skips and says
so.

The digest is per schema version. Version 2's (572 events, 26f168b1...,
taken at PR 18) held through PR 23; version 3 records a PDR hop once, with
``lanes`` and bytes summed over them, where version 2 recorded each of its
P channels: 268 events for the same run. The change of schema was checked
record against record where lanes are equal and the clocks therefore are:
on all four collectives every version-3 ``ring_hop`` / ``message_sent`` /
``message_delivered`` carries the instants of its P version-2 records,
the sum of their bytes and the largest of their merge times.

Version 4 drops what only the deleted ``collective="auto"`` tuner wrote:
``source`` and ``predicted`` from ``collective_chosen`` and
``predicted`` from ``collective_completed`` (always ``"spec"`` and 0.0
on a pinned collective). It was checked record against record against
version 3: the same 268 events in the same order, every other key and
value equal, and the removed keys ``"spec"`` / 0.0 on all four records.
"""

import hashlib
import json
import platform
import warnings

import numpy as np
import pytest

from repro import AggregationSpec, ClusterConfig, SparkerSession
from repro.cluster import MB
from repro.faults import (
    AtRingHop,
    ExecutorCrash,
    FaultController,
    FaultPlan,
    RecoveryPolicy,
)
from repro.obs import RecordingListener
from repro.rdd import Costed
from repro.serde import SizedPayload

#: schema version 4 (no tuner fields)
PARENT_DIGEST = (
    "2bbbd2ed929d8d7a3e32b398b292097daaf5c1546cddeab571ed699414693445")
PARENT_EVENTS = 268
FINGERPRINT = {"python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64"}


def recorded_stream():
    """Every event of the fixed run, in emission order."""
    trained = RecordingListener()
    SparkerSession(ClusterConfig.laptop(2)).run(
        "LR-A", aggregation="split", iterations=1, spec=AggregationSpec(),
        listener=trained)
    faulted = RecordingListener()
    with SparkerSession(ClusterConfig.laptop(3)).context() as sc:
        sc.event_bus.subscribe(faulted)
        victim = sc.executors[1].executor_id
        FaultController(
            sc, FaultPlan((ExecutorCrash(victim, AtRingHop(1)),), seed=7),
            RecoveryPolicy(recv_timeout=0.25, max_ring_attempts=3)).arm()
        data = [SizedPayload(np.full(256, float(i)), sim_bytes=16 * MB)
                for i in range(24)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the downgrade
            sc.parallelize(data, 6).split_aggregate(
                lambda: SizedPayload(np.zeros(256), sim_bytes=16 * MB),
                Costed(lambda a, x: a.merge_inplace(x), 0.02),
                lambda u, i, n: u.split(i, n), lambda a, b: a.merge(b),
                SizedPayload.concat,
                AggregationSpec(collective="pipelined_ring", parallelism=3))
    return trained.events + faulted.events


def test_recorded_stream_is_the_parents_byte_for_byte():
    here = {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}
    if here != FINGERPRINT:
        pytest.skip(f"digest was taken on {FINGERPRINT}, this is {here}")
    events = recorded_stream()
    kinds = {e.kind for e in events}
    assert {"ring_hop", "message_sent", "message_delivered", "task_end",
            "imm_merge", "chunk_stream", "fault_injected", "recovery_action",
            "collective_downgraded"} <= kinds
    blob = "\n".join(json.dumps(e.to_record(), sort_keys=True)
                     for e in events)
    assert len(events) == PARENT_EVENTS
    assert hashlib.sha256(blob.encode()).hexdigest() == PARENT_DIGEST
