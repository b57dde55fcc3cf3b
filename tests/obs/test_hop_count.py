"""What a PDR hop costs, as counts: kernel events and records per hop.

A hop is one message over P lanes — one rank process, one flow of P
streams, one ``ring_hop`` record — not P of each. The counts below repeat
to the unit on any host; wall clock is claimed through the ledger's paired
protocol (``wall_s`` on ``train_split``), never here.
"""

from collections import Counter

from repro import AggregationSpec, ClusterConfig, SparkerSession
from repro.obs import RecordingListener

#: kernel events of one split iteration of LR-K on BICx8 (48 ranks, P=4).
#: 19,681 when every channel was a ring process of its own, 9,311 as lanes.
SIM_EVENTS = 10_000


def test_one_split_iteration_schedules_a_bounded_number_of_kernel_events():
    rec = RecordingListener()
    result = SparkerSession(ClusterConfig.bic(8)).run(
        "LR-K", aggregation="split", iterations=1, spec=AggregationSpec(),
        listener=rec)
    assert result.sim_events <= SIM_EVENTS
    kinds = Counter(e.kind for e in rec.events)
    ranks, lanes = 48, AggregationSpec().parallelism
    # the one ring collective of the iteration: N ranks x N-1 hops, each
    # one record of P lanes and one fabric message (plus N to the driver)
    assert kinds["ring_hop"] == ranks * (ranks - 1)
    assert kinds["message_sent"] == ranks * (ranks - 1) + ranks
    assert {e.lanes for e in rec.of_kind("ring_hop")} == {lanes}
