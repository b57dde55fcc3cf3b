"""The arbiter's grant order against a scan of every queued ticket.

Tickets queue FIFO per pool, and a grant compares only the pools' heads
by ``(running / weight, seq)``; that must pick the ticket a minimum over
all queued tickets picks, grant after grant, as running counts change.
"""

from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.rdd import SparkerContext
from repro.rdd.fair import FairTaskArbiter, PoolConfig

POOLS = "abc"


@given(pools=st.lists(st.sampled_from(POOLS), min_size=1, max_size=24),
       weights=st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                        min_size=len(POOLS), max_size=len(POOLS)),
       running=st.lists(st.integers(0, 4), min_size=len(POOLS),
                        max_size=len(POOLS)))
def test_a_grant_goes_to_the_ticket_a_scan_of_all_tickets_picks(
        pools, weights, running):
    sc = SparkerContext(ClusterConfig.laptop(1))
    arbiter = FairTaskArbiter(sc)
    arbiter.register_pools(
        {p: PoolConfig(weight=w) for p, w in zip(POOLS, weights)}, "a")
    arbiter._running.update(zip(POOLS, running))
    executor = sc.executors[0]
    slots = arbiter.slots[executor.executor_id]
    slots.held = slots.capacity
    # each admit stays referenced: a closed one withdraws its ticket
    admits = [arbiter.admit(executor, SimpleNamespace(pool=pool))
              for pool in pools]
    # queued, since every slot is held
    tickets = [(seq, pool, next(admit))
               for seq, (pool, admit) in enumerate(zip(pools, admits))]
    while tickets:
        expected = min(tickets, key=lambda t: (
            arbiter._running.get(t[1], 0) / arbiter.pools[t[1]].weight,
            t[0]))
        slots.held -= 1
        arbiter._dispatch(slots)
        granted = [t for t in tickets if t[2].triggered]
        assert granted == [expected]
        tickets.remove(expected)
        arbiter._running[expected[1]] += 1  # the task resumed
    assert arbiter.queued() == 0
