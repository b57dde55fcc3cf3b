"""Tests for the flow-level fair-sharing network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.flows import FlowNetwork, Link
from repro.sim import Environment


def run_flows(specs, capacities):
    """Run flows and return their completion times.

    ``specs`` is a list of (nbytes, link_indices, rate_cap); ``capacities``
    the link capacities. Returns the list of completion times.
    """
    env = Environment()
    net = FlowNetwork(env)
    links = [Link(c, name=f"l{i}") for i, c in enumerate(capacities)]
    events = [
        net.flow(nbytes, [links[i] for i in idxs], rate_cap=cap)
        for nbytes, idxs, cap in specs
    ]
    times = []
    for ev in events:
        env.run(until=ev)
        times.append(env.now)
    return times


def test_single_flow_runs_at_cap():
    (t,) = run_flows([(100.0, [0], 10.0)], [1000.0])
    assert t == pytest.approx(10.0)


def test_single_flow_runs_at_link_capacity_without_cap():
    (t,) = run_flows([(100.0, [0], None)], [50.0])
    assert t == pytest.approx(2.0)


def test_two_flows_share_link_equally():
    times = run_flows(
        [(100.0, [0], None), (100.0, [0], None)], [100.0])
    assert times == [pytest.approx(2.0), pytest.approx(2.0)]


def test_capped_flow_leaves_headroom_to_other():
    # Flow A capped at 20 on a 100-capacity link; flow B takes the remaining 80.
    times = run_flows(
        [(100.0, [0], 20.0), (400.0, [0], None)], [100.0])
    assert times[0] == pytest.approx(5.0)
    # B: 80 B/s while A active (5 s -> 400 B done). Exactly finished too.
    assert times[1] == pytest.approx(5.0)


def test_rates_rebalance_when_flow_completes():
    # Two equal flows share 100; when the short one finishes, the long one
    # speeds up to the full link.
    times = run_flows(
        [(50.0, [0], None), (150.0, [0], None)], [100.0])
    assert times[0] == pytest.approx(1.0)
    # Long flow: 50 bytes by t=1 (rate 50), remaining 100 at rate 100 -> t=2.
    assert times[1] == pytest.approx(2.0)


def test_multi_link_flow_respects_tightest_link():
    (t,) = run_flows([(100.0, [0, 1], None)], [100.0, 25.0])
    assert t == pytest.approx(4.0)


def test_crossing_flows_bottleneck_on_shared_link():
    # Flows A: links 0+1, B: links 1+2. Link 1 shared (cap 100); links 0/2 huge.
    times = run_flows(
        [(100.0, [0, 1], None), (100.0, [1, 2], None)],
        [1e9, 100.0, 1e9])
    assert times == [pytest.approx(2.0), pytest.approx(2.0)]


def test_zero_byte_flow_completes_immediately():
    env = Environment()
    net = FlowNetwork(env)
    link = Link(10.0)
    ev = net.flow(0.0, [link])
    assert ev.triggered


def test_negative_bytes_rejected():
    env = Environment()
    net = FlowNetwork(env)
    with pytest.raises(ValueError):
        net.flow(-1.0, [Link(10.0)])


def test_invalid_rate_cap_rejected():
    env = Environment()
    net = FlowNetwork(env)
    with pytest.raises(ValueError):
        net.flow(10.0, [Link(10.0)], rate_cap=0.0)


def test_link_capacity_validation():
    with pytest.raises(ValueError):
        Link(0.0)


# ------------------------------------------------------------------ streams
def test_streams_count_as_that_many_flows_with_one_completion():
    # a 3-stream message and a single flow on one link: four shares of 25,
    # the message done when its streams are, then the link to the survivor
    env = Environment()
    net = FlowNetwork(env)
    link = Link(100.0, "l")
    done = []
    wide = net.flow(50.0, [link], streams=3)
    lone = net.flow(200.0, [link])
    wide.add_callback(lambda _e: done.append(("wide", env.now)))
    lone.add_callback(lambda _e: done.append(("lone", env.now)))
    assert net.active_flows == 2
    assert net.rate_of(wide) == 75.0 and net.rate_of(lone) == 25.0
    assert net.link_rate(link) == 100.0
    env.run()
    assert done == [("wide", 2.0), ("lone", 3.5)]
    assert net.completed == 2


def test_each_stream_runs_under_its_own_cap():
    env = Environment()
    net = FlowNetwork(env)
    link = Link(100.0, "l")
    capped = net.flow(60.0, [link], rate_cap=20.0, streams=2)
    assert net.rate_of(capped) == 40.0 and net.link_rate(link) == 40.0
    env.run(until=capped)
    assert env.now == 3.0


def test_a_fractional_stream_count_is_a_weight():
    # 1.5 streams against one: shares of 40, 60 to the wider flow
    env = Environment()
    net = FlowNetwork(env)
    link = Link(100.0, "l")
    wide = net.flow(80.0, [link], streams=1.5)
    lone = net.flow(80.0, [link])
    assert net.rate_of(wide) == pytest.approx(60.0)
    assert net.rate_of(lone) == pytest.approx(40.0)
    env.run()
    assert env.now == pytest.approx(2.0)  # 80 B a stream at 40 B/s, both


def test_less_than_one_stream_rejected():
    env = Environment()
    net = FlowNetwork(env)
    with pytest.raises(ValueError, match="at least one stream"):
        net.flow(10.0, [Link(10.0)], streams=0)


def test_flow_without_links_needs_cap():
    # A linkless flow is only meaningful with a finite cap.
    env = Environment()
    net = FlowNetwork(env)
    ev = net.flow(100.0, [], rate_cap=50.0)
    env.run(until=ev)
    assert env.now == pytest.approx(2.0)


def test_staggered_arrivals_account_for_past_progress():
    env = Environment()
    net = FlowNetwork(env)
    link = Link(100.0)
    first = net.flow(100.0, [link])

    record = {}

    def late_arrival():
        yield env.timeout(0.5)  # first flow has moved 50 bytes at rate 100
        second = net.flow(100.0, [link])
        yield first
        record["first"] = env.now
        yield second
        record["second"] = env.now

    proc = env.process(late_arrival())
    env.run(until=proc)
    # After t=0.5 both share 50 B/s. First has 50 left -> done at t=1.5.
    assert record["first"] == pytest.approx(1.5)
    # Second: 50 bytes by t=1.5, then rate 100 -> done at t=2.0.
    assert record["second"] == pytest.approx(2.0)


def test_many_equal_flows_aggregate_to_capacity():
    n = 16
    times = run_flows([(100.0, [0], None)] * n, [100.0])
    for t in times:
        assert t == pytest.approx(n * 1.0)


def test_completed_counter():
    env = Environment()
    net = FlowNetwork(env)
    link = Link(100.0)
    ev1 = net.flow(10.0, [link])
    ev2 = net.flow(10.0, [link])
    env.run(until=ev1)
    env.run(until=ev2)
    assert net.completed == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=1e6),       # bytes
            st.floats(min_value=1.0, max_value=1e4),       # cap
        ),
        min_size=1, max_size=8,
    ),
    st.floats(min_value=10.0, max_value=1e5),              # link capacity
)
def test_conservation_property(flow_specs, capacity):
    """Total bytes delivered over total time never exceeds link capacity,
    and every flow eventually completes."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link(capacity)
    events = [net.flow(b, [link], rate_cap=c) for b, c in flow_specs]
    for ev in events:
        env.run(until=ev)
    total_bytes = sum(b for b, _ in flow_specs)
    min_time_bound = total_bytes / capacity
    assert env.now >= min_time_bound * (1 - 1e-6)
    # And no slower than serial execution at the slowest admissible rate.
    serial_bound = sum(b / min(c, capacity) for b, c in flow_specs)
    assert env.now <= serial_bound * (1 + 1e-6) + 1e-9


def test_two_capped_flows_same_link_regression():
    """Regression: duplicate heap entries for one flow must not complete it
    twice (this silently killed the completion timer before the kernel's
    critical-process crash semantics existed)."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link(10.0)
    a = net.flow(1.0, [link], rate_cap=1.0)
    b = net.flow(1.0, [link], rate_cap=2.0)
    env.run(until=a)
    assert env.now == pytest.approx(1.0)
    assert b.triggered
    assert net.completed == 2
    assert net.active_flows == 0


def test_simultaneous_completions_on_shared_link():
    env = Environment()
    net = FlowNetwork(env)
    link = Link(100.0)
    events = [net.flow(50.0, [link]) for _ in range(4)]
    for ev in events:
        env.run(until=ev)
    assert env.now == pytest.approx(2.0)
    assert net.completed == 4


def test_rate_of_forces_pending_flush():
    # Joins are batched to an end-of-instant flush; reading a rate before
    # the flush event fires must force the allocation instead of
    # returning the unallocated 0.0.
    env = Environment()
    net = FlowNetwork(env)
    link = Link(10.0, name="l")
    a = net.flow(100.0, [link])
    b = net.flow(100.0, [link])
    assert net.rate_of(a) == pytest.approx(5.0)
    assert net.rate_of(b) == pytest.approx(5.0)
    assert net.link_rate(link) == pytest.approx(10.0)


def test_batched_joins_match_sequential_joins():
    # N flows joining at one instant are one delta; forcing the flush after
    # every join applies the same joins as N deltas. Both must land on the
    # same max-min allocation and so on the same completion times.
    specs = [(60.0, [0], None), (60.0, [0], None), (30.0, [0], 4.0)]
    times = run_flows(specs, [12.0])
    env = Environment()
    net = FlowNetwork(env)
    link = Link(12.0, name="l0")
    staggered = []
    for nbytes, _idxs, cap in specs:
        staggered.append(net.flow(nbytes, [link], rate_cap=cap))
        net.rate_of(staggered[-1])  # force a flush after every join
    expected = []
    for ev in staggered:
        env.run(until=ev)
        expected.append(env.now)
    assert times == pytest.approx(expected, rel=1e-12)


def test_flush_is_batched_per_instant():
    # All joins of one instant are allocated by a single deferred flush:
    # before any event runs, the links they cross are only marked.
    env = Environment()
    net = FlowNetwork(env)
    link = Link(8.0, name="l")
    flows = [net.flow(40.0, [link]) for _ in range(4)]
    assert all(f is not None for f in flows)
    assert net._work and net._flush_pending
    assert env.events_scheduled == 1  # the one flush; no timer armed yet
    for ev in flows:
        env.run(until=ev)
    assert env.now == pytest.approx(40.0 / 2.0)
    env.run()  # the leaves of the last instant are flushed too
    assert not net._work and net.active_flows == 0


def test_leave_is_coalesced_with_same_instant_join():
    # A completion and the join it triggers are one delta: the link is
    # relaxed once at the end of the instant, with the newcomer on it, so
    # the survivor never sees (and never is re-levelled for) the gap.
    env = Environment()
    net = FlowNetwork(env)
    link = Link(10.0, name="l")
    first = net.flow(10.0, [link])
    survivor = net.flow(100.0, [link])

    def rejoin():
        yield first
        assert net._flush_pending  # the leave has not been applied yet
        yield net.flow(10.0, [link])

    proc = env.process(rejoin())
    env.run(until=first)
    before = net.solver_ops
    env.run(until=env.now)  # drain the instant: the one flush runs here
    assert net.rate_of(survivor) == 5.0
    # one leave + one join + one relax of the one link
    assert net.solver_ops - before <= 3
    env.run(until=proc)
    assert env.now == pytest.approx(4.0)


@pytest.mark.parametrize("flows", [10, 100, 1000])
def test_solver_work_per_completion_is_independent_of_n(flows):
    # The one-sink shape of the ledger's fabric_1000flows workload: every
    # flow crosses its own uplink and one shared sink, and re-joins the
    # instant it completes. Work is counted, not timed: flows re-pinned
    # plus links relaxed per completion must not grow with the component.
    import random

    env = Environment()
    net = FlowNetwork(env)
    sink = Link(1e9, "sink")
    uplinks = [Link(1e9, f"up{i}") for i in range(flows)]
    target = 300

    def driver(i):
        rng = random.Random(i)
        while net.completed < target:
            yield net.flow(rng.uniform(2e7, 2e8), [uplinks[i], sink])

    for i in range(flows):
        env.process(driver(i))
    env.run(until=0.0)  # the initial joins are not completions
    warm = net.solver_ops
    env.run()
    assert net.completed >= target
    per_completion = (net.solver_ops - warm) / net.completed
    assert per_completion <= 6, per_completion
