"""What recording costs, as a count: Python-level calls per emitted event.

CI's tracing gate. A ratio of two 0.06 s wall-clock timings fails on a
loaded runner and passes on a quiet one whatever the code does; the
number of calls the interpreter makes (``sys.setprofile``: ``call`` +
``c_call``) on a fixed aggregation repeats to the unit, and what a
recorder adds to it, per event, is the cost of building and delivering
one event. Wall clock is claimed through the ledger's paired protocol
(``wall_recorded_s`` on ``train_split``), never here.
"""

import gc
import sys

import numpy as np

from repro import AggregationSpec
from repro.cluster import MB, ClusterConfig
from repro.obs import RecordingListener
from repro.rdd import SparkerContext
from repro.serde import SizedPayload

#: calls one recorded event may add to the run that emits it. Split ring
#: on laptop(3), P=3, CPython 3.11: 16.5 when an event was a dict assembled
#: from kwargs, 12.3 as a slots record from a generated constructor
#: delivered by ``list.append``; most of what is left computes the fields
#: of a hop (sizes, representations) and allocates spans. Since a hop is
#: one record of three lanes (sized and read lane by lane) it is 21.0 an
#: event over 144 events — 3,029 calls where 324 one-lane events added
#: 3,989.
CALLS_PER_EVENT = 22.0


def _aggregate(listener=None, detach=False):
    """Calls the interpreter makes for one fixed ring split-aggregation."""
    sc = SparkerContext(ClusterConfig.laptop(3))
    data = [SizedPayload(np.full(256, float(i)), sim_bytes=16 * MB)
            for i in range(24)]
    rdd = sc.parallelize(data, 6)
    if listener is not None:
        sc.event_bus.subscribe(listener)
        if detach:
            sc.event_bus.unsubscribe(listener)
    calls = [0]

    def profiler(_frame, event, _arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    # a collection runs whatever hooks the process has registered
    # (hypothesis times them through gc.callbacks), inside the count
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        rdd.split_aggregate(
            lambda: SizedPayload(np.zeros(256), sim_bytes=16 * MB),
            lambda a, x: a.merge_inplace(x), lambda u, i, n: u.split(i, n),
            lambda a, b: a.merge(b), SizedPayload.concat,
            AggregationSpec(collective="ring", parallelism=3))
    finally:
        sys.setprofile(None)
        gc.enable()
    sc.stop()
    return calls[0]


def test_recording_costs_a_bounded_number_of_calls_per_event():
    _aggregate(RecordingListener())  # warm-up: caches, first-use imports
    plain = _aggregate()
    assert _aggregate() == plain  # the count is exact, or it gates nothing
    rec = RecordingListener()
    recorded = _aggregate(rec)
    kinds = [e.kind for e in rec.events]
    assert (len(kinds), kinds.count("ring_hop"), kinds.count("message_sent"),
            kinds.count("message_delivered")) == (144, 30, 36, 36)
    per_event = (recorded - plain) / len(kinds)
    assert 0 < per_event <= CALLS_PER_EVENT, (plain, recorded, per_event)


def test_a_detached_listener_leaves_no_cost_behind():
    _aggregate(RecordingListener())
    rec = RecordingListener()
    assert _aggregate(rec, detach=True) == _aggregate()
    assert not rec.events
