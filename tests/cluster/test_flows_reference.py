"""Differential oracle: the incremental flow solver against progressive
filling done the slow obvious way.

The production solver (``repro.cluster.flows``) keeps the max-min
allocation as persistent per-link state and applies every join, leave and
capacity change as a delta. The reference below keeps nothing: at every
event it re-runs global progressive filling over all active flows and
advances every flow's remaining bytes by ``rate * dt``. Scenarios are
generated from a seed — up to a few hundred flows over 1-3 links each,
per-flow caps, staggered and same-instant arrivals, flows that start at
the instant another completes, and a link whose capacity drops mid-run and
comes back — and the two must agree on every completion time to 1e-9
(the virtual-time contract of DESIGN.md section 9). While the production
run executes, the allocation is checked after every instant: rates are
max-min fair and every flow delivers exactly its bytes.

A second oracle covers the delayed join: ``flow(..., delay=d)`` against a
process that waits ``d`` on a kernel timeout and then calls ``flow()``, on a
network of its own. Where no link saturates, a completion instant is the
join instant plus ``nbytes / cap`` and the two must be equal to the last
bit, from no more kernel events. Under contention they are held to the 1e-9
contract: the two runs apply the operations of a shared instant in another
order and keep different superseded wake-ups in the calendar, and either
can move a completion by an ulp (sums run in another order; a flow within
1e-12 s of done rides whichever wake-up comes first). The hand-written
contended cases are bit-equal.

A third covers ``flow(..., streams=m)``, which is by definition ``m``
identical flows joined at one instant: the bundled scenario against the same
scenario with every bundle written out as ``m`` unit flows, on the
production solver and on progressive filling. A fractional ``streams`` is a
weight, held to progressive filling with weights (a flow of weight ``w``
takes ``w`` shares, each under the cap).
"""

import math
import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.flows import FlowNetwork, Link
from repro.sim import Environment

#: agreement demanded of completion times; the absolute term is the
#: solver's own completion slack (flows within 1e-9 s of done are done)
REL, ABS = 1e-9, 2e-9
#: tolerance of the fairness check
FAIR = 1e-9


@dataclass
class FlowSpec:
    nbytes: float
    links: Tuple[int, ...]
    cap: float
    start: float = 0.0
    after: Optional[int] = None  # start when this flow completes instead
    delay: float = 0.0  # announced at its start, joins this much later
    streams: float = 1  # parallel streams of ``nbytes`` each, ``cap`` each


@dataclass
class Scenario:
    capacities: List[float]
    flows: List[FlowSpec]
    changes: List[Tuple[float, int, float]]  # (time, link, new capacity)


def make_scenario(seed, n_flows, n_links, n_changes=2, delays=False,
                  contended=True, bundles=None):
    """``delays``: most flows are announced with a start delay.
    ``contended=False``: every flow is capped and no link can saturate.
    ``bundles``: half the flows are 2-4 streams wide (``"whole"``) or
    weigh 1-4 streams, fractions included (``"weighted"``)."""
    rng = random.Random(seed)
    # a few distinct capacities and caps, so that exact ties are common
    capacities = [rng.choice((100.0, 100.0, 250.0, rng.uniform(50.0, 500.0)))
                  for _ in range(n_links)]
    horizon = max(1.0, 2.0 * n_flows * 400.0 / sum(capacities))
    if not contended:
        capacities = [1e6] * n_links
    grid = [0.0, 0.0, round(horizon * 0.1, 3), round(horizon * 0.25, 3)]
    flows = []
    for i in range(n_flows):
        k = rng.randint(1, min(3, n_links))
        links = tuple(sorted(rng.sample(range(n_links), k)))
        cap = math.inf
        if rng.random() < 0.4 or not contended:
            cap = rng.choice((20.0, 60.0, rng.uniform(5.0, 200.0)))
        spec = FlowSpec(rng.uniform(20.0, 800.0), links, cap)
        how = rng.random()
        if how < 0.45:
            spec.start = rng.choice(grid)
        elif how < 0.8 or i == 0:
            spec.start = rng.uniform(0.0, horizon * 0.5)
        else:
            spec.after = rng.randrange(i)
        if delays and rng.random() < 0.6:
            # a short grid, so that equal delays and equal join instants
            # (grid start + grid delay) are common
            spec.delay = rng.choice(grid[2:] + [0.001, 0.001, 0.05])
            lone = [f for f in flows if f.after is None and f.delay == 0.0
                    and not math.isinf(f.cap)]
            if lone and rng.random() < 0.25:
                # land on the instant another flow completes (if that one
                # runs at its cap throughout)
                other = rng.choice(lone)
                spec.start, spec.after = 0.0, None
                spec.delay = other.start + other.nbytes / other.cap
        if bundles and rng.random() < 0.5:
            spec.streams = (rng.randint(2, 4) if bundles == "whole" else
                            rng.choice((1.5, 2.0, rng.uniform(1.0, 4.0))))
        flows.append(spec)
    changes = []
    for _ in range(n_changes):
        link = rng.randrange(n_links)
        down = rng.uniform(0.05, 0.4) * horizon
        changes.append((down, link, capacities[link] * rng.uniform(0.2, 0.6)))
        changes.append((down + rng.uniform(0.05, 0.3) * horizon, link,
                        capacities[link]))
    changes.sort()
    return Scenario(capacities, flows, changes)


def unbundled(scenario):
    """``scenario`` with every ``streams=m`` flow written out as ``m`` unit
    flows, and the index of each original flow's first copy."""
    first, flows = [], []
    for spec in scenario.flows:
        first.append(len(flows))
        after = None if spec.after is None else first[spec.after]
        flows += [replace(spec, streams=1, after=after)
                  for _ in range(spec.streams)]
    return Scenario(scenario.capacities, flows, scenario.changes), first


# ----------------------------------------------------------------- reference
def max_min_rates(active, flows, capacities):
    """Progressive filling: raise all streams' rates together, freeze a
    flow when it hits its cap or a link it crosses fills up. Returns the
    rate of one stream of each flow."""
    room = list(capacities)
    rates = {}
    unfrozen = list(active)
    while unfrozen:
        count = [0.0] * len(capacities)
        for i in unfrozen:
            for link in flows[i].links:
                count[link] += flows[i].streams
        share, bottleneck = math.inf, None
        for link, members in enumerate(count):
            if members and room[link] / members < share:
                share, bottleneck = room[link] / members, link
        frozen = [(i, flows[i].cap) for i in unfrozen if flows[i].cap <= share]
        if not frozen:
            frozen = [(i, share) for i in unfrozen
                      if bottleneck in flows[i].links]
        for i, rate in frozen:
            rates[i] = rate
            for link in flows[i].links:
                room[link] = max(room[link] - rate * flows[i].streams, 0.0)
        done = {i for i, _rate in frozen}
        unfrozen = [i for i in unfrozen if i not in done]
    return rates


def reference_completion_times(scenario):
    flows = scenario.flows
    capacities = list(scenario.capacities)
    changes = list(scenario.changes)
    remaining = [spec.nbytes for spec in flows]
    start = [spec.start + spec.delay if spec.after is None else math.inf
             for spec in flows]
    done = [None] * len(flows)
    active = []
    now = 0.0
    while True:
        for i, spec in enumerate(flows):
            if done[i] is None and i not in active and start[i] <= now:
                active.append(i)
        while changes and changes[0][0] <= now:
            _when, link, capacity = changes.pop(0)
            capacities[link] = capacity
        waiting = [start[i] for i in range(len(flows))
                   if done[i] is None and i not in active]
        if not active and all(math.isinf(t) for t in waiting):
            return done
        rates = max_min_rates(active, flows, capacities)
        horizon = min([remaining[i] / rates[i] for i in active]
                      + [t - now for t in waiting]
                      + [c[0] - now for c in changes[:1]])
        finishing = [i for i in active
                     if remaining[i] / rates[i] <= horizon * (1 + 1e-12)]
        for i in active:
            remaining[i] -= rates[i] * horizon
        now += horizon
        for i in finishing:
            done[i] = now
            active.remove(i)
            for j, spec in enumerate(flows):
                if spec.after == i:
                    start[j] = now + spec.delay


# ---------------------------------------------------------------- production
def production_run(scenario, check=True, sample_every=None, announce=True):
    """Completion times from the real solver (and ``events_scheduled``).

    With ``check`` the allocation is verified after every instant; with
    ``sample_every`` a monitor reads ``link_rate`` of every link on that
    period, the way ``NicMonitor`` does. A flow's ``delay`` is handed to
    ``flow()``; with ``announce=False`` the starter waits it out on a
    kernel timeout instead and then joins at once."""
    env = Environment()
    net = FlowNetwork(env)
    links = [Link(c, name=f"l{j}") for j, c in enumerate(scenario.capacities)]
    flows = scenario.flows
    finished = [env.event() for _ in flows]
    finish = [None] * len(flows)
    live, joins_at = {}, {}

    def starter(i, spec):
        if spec.after is not None:
            yield finished[spec.after]
        elif spec.start > 0:
            yield env.timeout(spec.start)
        delay = spec.delay
        if delay and not announce:
            yield env.timeout(delay)
            delay = 0.0
        joins_at[i] = env.now + delay
        event = net.flow(spec.nbytes, [links[j] for j in spec.links],
                         rate_cap=None if math.isinf(spec.cap) else spec.cap,
                         delay=delay, streams=spec.streams)
        live[i] = event
        yield event
        del live[i]
        finish[i] = env.now
        finished[i].succeed()

    def changer(when, link, capacity):
        yield env.timeout(when)
        net.set_link_capacity(links[link], capacity)

    def monitor():
        while net.completed < len(flows):
            for link in links:
                net.link_rate(link)
            yield env.timeout(sample_every)

    for i, spec in enumerate(flows):
        env.process(starter(i, spec))
    for change in scenario.changes:
        env.process(changer(*change))
    if sample_every:
        env.process(monitor())

    delivered = [0.0] * len(flows)
    rates, last = {}, 0.0
    while env.peek() != math.inf:
        env.step()
        if not check or env.peek() <= env.now:
            continue
        # the instant is over: account the bytes moved since the last one,
        # then verify the allocation that holds from here on
        for i, rate in rates.items():
            delivered[i] += rate * (env.now - last)
            if i not in live:
                assert delivered[i] == pytest.approx(
                    flows[i].nbytes * flows[i].streams, rel=1e-9,
                    abs=1e-5), (i, env.now)
        last = env.now
        rates = {}
        for i, event in live.items():
            if env.now < joins_at[i]:  # announced, not in the network yet
                with pytest.raises(KeyError):
                    net.rate_of(event)
            else:
                rates[i] = net.rate_of(event)
        assert net.active_flows == len(rates)
        assert_max_min(rates, flows, links, net)
    assert net.active_flows == 0 and net.completed == len(flows)
    return finish, env.events_scheduled


def assert_max_min(rates, flows, links, net):
    """Every stream is at its cap, or crosses a saturated link on which no
    stream is faster; no link carries more than its capacity."""
    load = [0.0] * len(links)
    fastest = [0.0] * len(links)
    rates = {i: rate / flows[i].streams for i, rate in rates.items()}
    for i, rate in rates.items():
        assert 0 < rate <= flows[i].cap * (1 + FAIR), (i, rate)
        for j in flows[i].links:
            load[j] += rate * flows[i].streams
            fastest[j] = max(fastest[j], rate)
    for j, link in enumerate(links):
        assert load[j] <= link.capacity * (1 + FAIR), (link, load[j])
        assert net.link_rate(link) == pytest.approx(load[j], rel=1e-9)
    for i, rate in rates.items():
        if rate >= flows[i].cap * (1 - FAIR):
            continue
        assert any(load[j] >= links[j].capacity * (1 - FAIR)
                   and rate >= fastest[j] * (1 - FAIR)
                   for j in flows[i].links), (i, rate)


def assert_agree(scenario):
    expected = reference_completion_times(scenario)
    got, _events = production_run(scenario)
    for i, (mine, theirs) in enumerate(zip(got, expected)):
        assert mine == pytest.approx(theirs, rel=REL, abs=ABS), \
            (i, scenario.flows[i])


def assert_bundles_agree(scenario):
    """Every ``streams=m`` flow completes when its ``m`` unit flows do,
    under the production solver and under progressive filling."""
    apart, first = unbundled(scenario)
    got, events = production_run(scenario)
    separate, separate_events = production_run(apart, check=False)
    expected = reference_completion_times(apart)
    for i, spec in enumerate(scenario.flows):
        for copy in range(first[i], first[i] + spec.streams):
            assert got[i] == pytest.approx(separate[copy], rel=REL, abs=ABS)
            assert got[i] == pytest.approx(expected[copy], rel=REL, abs=ABS)
    assert events <= separate_events


def assert_delay_agrees(scenario, exact):
    """``flow(delay=d)`` against timeout-then-``flow()``: every flow
    completes at the same instant, to the last bit with ``exact``, else to
    the virtual-time contract. Returns both runs' kernel event counts."""
    announced, events = production_run(scenario, check=False)
    waited, reference_events = production_run(scenario, check=False,
                                              announce=False)
    if exact:
        assert [t.hex() for t in announced] == [t.hex() for t in waited]
    else:
        assert announced == pytest.approx(waited, rel=REL, abs=ABS)
    return events, reference_events


# --------------------------------------------------------------------- tests
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_flows=st.integers(1, 40),
       n_links=st.integers(1, 6), n_changes=st.integers(0, 2))
def test_solver_matches_reference(seed, n_flows, n_links, n_changes):
    assert_agree(make_scenario(seed, n_flows, n_links, n_changes))


@pytest.mark.parametrize("seed,n_flows,n_links", [
    (1, 300, 12), (2, 300, 3), (3, 200, 40), (4, 250, 1)])
def test_solver_matches_reference_at_scale(seed, n_flows, n_links):
    assert_agree(make_scenario(seed, n_flows, n_links))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_flows=st.integers(1, 40),
       n_links=st.integers(1, 6), n_changes=st.integers(0, 2))
def test_delayed_joins_match_both_references(seed, n_flows, n_links,
                                             n_changes):
    scenario = make_scenario(seed, n_flows, n_links, n_changes, delays=True)
    assert_agree(scenario)
    assert_delay_agrees(scenario, exact=False)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_flows=st.integers(1, 40),
       n_links=st.integers(1, 6), n_changes=st.integers(0, 2))
def test_delayed_join_is_exact_where_nothing_saturates(seed, n_flows,
                                                       n_links, n_changes):
    scenario = make_scenario(seed, n_flows, n_links, n_changes, delays=True,
                             contended=False)
    events, reference_events = assert_delay_agrees(scenario, exact=True)
    # projections never move, so no wake-up is ever wasted: a delayed join
    # costs a wake-up where the reference pays a timeout, or rides one
    assert events <= reference_events


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_flows=st.integers(1, 30),
       n_links=st.integers(1, 6), n_changes=st.integers(0, 2),
       delays=st.booleans())
def test_streams_are_that_many_unit_flows(seed, n_flows, n_links, n_changes,
                                          delays):
    assert_bundles_agree(make_scenario(seed, n_flows, n_links, n_changes,
                                       delays=delays, bundles="whole"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_flows=st.integers(1, 30),
       n_links=st.integers(1, 6), n_changes=st.integers(0, 2),
       delays=st.booleans())
def test_fractional_streams_are_weights(seed, n_flows, n_links, n_changes,
                                        delays):
    assert_agree(make_scenario(seed, n_flows, n_links, n_changes,
                               delays=delays, bundles="weighted"))


@pytest.mark.parametrize("seed,n_flows,n_links,contended", [
    (11, 300, 12, True), (12, 250, 2, True), (13, 300, 4, False)])
def test_delayed_joins_at_scale(seed, n_flows, n_links, contended):
    scenario = make_scenario(seed, n_flows, n_links, delays=True,
                             contended=contended)
    events, reference_events = assert_delay_agrees(scenario,
                                                   exact=not contended)
    # every delayed flow saves its timeout, and the joins of one instant
    # share one wake-up
    assert events < reference_events


def test_flow_that_shifts_its_bottleneck():
    # x crosses a and b. While a is crowded x is pinned at a; once a's
    # crowd has left and b fills up, x's bottleneck is b.
    flows = [FlowSpec(4000.0, (0, 1), math.inf)]
    flows += [FlowSpec(100.0, (0,), math.inf) for _ in range(4)]
    flows += [FlowSpec(600.0, (1,), math.inf, start=10.0) for _ in range(5)]
    scenario = Scenario([100.0, 150.0], flows, [])
    assert_agree(scenario)

    env = Environment()
    net = FlowNetwork(env)
    a, b = Link(100.0, "a"), Link(150.0, "b")
    x = net.flow(4000.0, [a, b])
    for _ in range(4):
        net.flow(100.0, [a])
    assert net.rate_of(x) == pytest.approx(20.0)      # a shared five ways
    env.run(until=9.0)
    assert net.rate_of(x) == pytest.approx(100.0)     # alone on a
    env.run(until=10.0)
    for _ in range(5):
        net.flow(600.0, [b])
    assert net.rate_of(x) == pytest.approx(25.0)      # b shared six ways
    assert net.link_rate(a) == pytest.approx(25.0)
    assert net.link_rate(b) == pytest.approx(150.0)


def test_leave_and_join_at_one_instant():
    # b starts at the instant a completes: one delta, and c never sees the
    # link to itself in between.
    flows = [FlowSpec(100.0, (0,), math.inf), FlowSpec(300.0, (0,), math.inf),
             FlowSpec(100.0, (0,), math.inf, after=0)]
    scenario = Scenario([100.0], flows, [])
    got, _events = production_run(scenario)
    assert got == [pytest.approx(2.0), pytest.approx(5.0), pytest.approx(4.0)]
    assert_agree(scenario)


def test_capacity_drop_and_restore():
    flows = [FlowSpec(300.0, (0,), math.inf), FlowSpec(300.0, (0,), 40.0)]
    scenario = Scenario([100.0], flows, [(1.0, 0, 20.0), (3.0, 0, 100.0)])
    got, _events = production_run(scenario)
    # 60+40 for 1 s, then 10+10 for 2 s, then 60+40 again
    assert got == [pytest.approx(1.0 + 2.0 + 220.0 / 60.0),
                   pytest.approx(1.0 + 2.0 + 240.0 / 40.0)]
    assert_agree(scenario)


@pytest.mark.parametrize("seed", [5, 6])
def test_two_runs_are_byte_identical(seed):
    scenario = make_scenario(seed, 150, 8)
    first = production_run(scenario, check=False)
    second = production_run(scenario, check=False)
    assert [t.hex() for t in first[0]] == [t.hex() for t in second[0]]
    assert first[1] == second[1]


@pytest.mark.parametrize("seed", [7, 8])
def test_sampling_link_rates_perturbs_nothing(seed):
    # link_rate is a pure read: a monitor sampling every link at instants
    # of its own leaves every completion time bit-for-bit where it was.
    scenario = make_scenario(seed, 150, 8)
    plain, _events = production_run(scenario, check=False)
    for period in (0.37, 0.05):
        sampled, _events = production_run(scenario, check=False,
                                          sample_every=period)
        assert [t.hex() for t in sampled] == [t.hex() for t in plain]


# ------------------------------------------------- delayed joins, by hand
def test_announced_flow_is_outside_the_network_until_it_joins():
    env = Environment()
    net = FlowNetwork(env)
    link = Link(100.0, "l")
    first = net.flow(300.0, [link])
    later = net.flow(100.0, [link], delay=1.0)
    env.run(until=0.5)
    assert net.active_flows == 1 and net.rate_of(first) == 100.0
    assert net.link_rate(link) == 100.0
    with pytest.raises(KeyError):
        net.rate_of(later)
    env.run(until=1.0)  # the join's own instant
    assert net.active_flows == 2
    assert net.rate_of(first) == net.rate_of(later) == 50.0
    assert env.run(until=later) == 1  # ids go by join order
    assert env.now == 3.0
    with pytest.raises(ValueError):
        net.flow(1.0, [link], delay=-0.1)


def test_zero_byte_delayed_flow_fires_at_its_join_instant():
    env = Environment()
    net = FlowNetwork(env)
    fired = []
    before = env.events_scheduled
    empty = net.flow(0.0, [Link(100.0, "l")], delay=0.7)
    empty.add_callback(lambda _e: fired.append((env.now, net.active_flows)))
    env.run()
    assert fired == [(0.7, 0)] and net.completed == 0
    assert env.events_scheduled == before + 1  # the wake-up, nothing else


def test_join_armed_after_an_earlier_wake_up_is_on_time():
    # The join is announced while a sooner wake-up is armed, so its own is
    # scheduled from 0.3, where 0.3 + (0.9 - 0.3) is one ulp past 0.9.
    assert 0.1 + 0.8 == 0.9 and 0.3 + (0.9 - 0.3) > 0.9
    env = Environment()
    net = FlowNetwork(env)
    link = Link(100.0, "l")
    fired = []
    net.flow(30.0, [link]).add_callback(lambda _e: fired.append(env.now))
    env.timeout(0.1).add_callback(
        lambda _t: net.flow(0.0, [link], delay=0.8).add_callback(
            lambda _e: fired.append(env.now)))
    env.run()
    assert fired == [0.3, 0.9]


def test_join_just_inside_the_completion_window_waits_for_its_instant():
    # Completions within 1e-12 s of a wake-up ride it; a join never does.
    # Announced at 0.1, when the completion's wake-up at 0.3 is armed.
    delay = 0.2 + 2e-13
    when = 0.1 + delay
    assert 0.3 < when < 0.3 + 1e-12
    env = Environment()
    net = FlowNetwork(env)
    link = Link(100.0, "l")
    fired = []
    net.flow(30.0, [link]).add_callback(lambda _e: fired.append(env.now))
    env.timeout(0.1).add_callback(
        lambda _t: net.flow(0.0, [link], delay=delay).add_callback(
            lambda _e: fired.append(env.now)))
    env.run()
    assert fired == [0.3, when]


def test_completion_callback_sees_the_instants_leaves_and_joins_applied():
    # a and c share the link; d joins at the instant a completes. a's
    # callback runs inside the network's wake-up, after both.
    flows = [FlowSpec(100.0, (0,), math.inf), FlowSpec(300.0, (0,), math.inf),
             FlowSpec(50.0, (0,), math.inf, delay=2.0)]
    scenario = Scenario([100.0], flows, [])
    assert_agree(scenario)
    assert_delay_agrees(scenario, exact=True)
    got, _events = production_run(scenario)
    assert got == [2.0, 4.5, 3.0]

    env = Environment()
    net = FlowNetwork(env)
    link = Link(100.0, "l")
    a, c = net.flow(100.0, [link]), net.flow(300.0, [link])
    d = net.flow(50.0, [link], delay=2.0)
    seen = []

    def on_a(_event):
        seen.append((env.now, net.active_flows, net.rate_of(c),
                     net.rate_of(d), net.link_rate(link)))
        with pytest.raises(KeyError):
            net.rate_of(a)

    a.add_callback(on_a)
    env.run()
    assert seen == [(2.0, 2, 50.0, 50.0, 100.0)]
    assert env.now == 4.5


def run_restarting_callback(announce):
    """a's completion callback starts one flow at once and one half a
    second later on the link c is still using; with ``announce=False`` the
    later one waits on a kernel timeout instead of ``delay``."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link(100.0, "l")
    done = {}

    def start(name, nbytes, delay=0.0):
        if delay and not announce:
            env.timeout(delay).add_callback(lambda _t: start(name, nbytes))
            return
        net.flow(nbytes, [link], delay=delay).add_callback(
            lambda _e: done.__setitem__(name, env.now))

    def on_a(_event):
        start("now", 100.0)
        start("later", 100.0, delay=0.5)
        # "now" is in, on a network that has already let a go
        assert net.active_flows == 2 and net.link_rate(link) == 100.0

    net.flow(100.0, [link]).add_callback(on_a)
    start("c", 300.0)
    env.run()
    return done, env.events_scheduled


def test_completion_callback_may_start_flows_in_place():
    done, events = run_restarting_callback(announce=True)
    reference, reference_events = run_restarting_callback(announce=False)
    assert {k: t.hex() for k, t in done.items()} == {
        k: t.hex() for k, t in reference.items()}
    # a wake-up for the timeout, and none for the projection the pending
    # join was about to move
    assert events == reference_events - 1
    # c and "now" at 50 until 2.5, three ways until "now" is done, ...
    assert done == {"now": pytest.approx(4.75), "later": pytest.approx(5.25),
                    "c": pytest.approx(6.0)}


def test_capacity_change_while_a_join_is_pending():
    flows = [FlowSpec(300.0, (0,), math.inf),
             FlowSpec(100.0, (0,), math.inf, delay=1.0)]
    scenario = Scenario([100.0], flows, [(0.5, 0, 50.0)])
    got, _events = production_run(scenario)
    # 100 B/s for 0.5 s, 50 B/s alone until the join at 1.0, then 25 + 25
    assert got == [pytest.approx(7.5), pytest.approx(5.0)]
    assert_agree(scenario)
    assert_delay_agrees(scenario, exact=True)


def test_joins_of_one_instant_share_one_wake_up():
    flows = [FlowSpec(100.0 + i, (i % 2,), 20.0, delay=0.25)
             for i in range(6)]
    scenario = Scenario([1e6, 1e6], flows, [])
    events, reference_events = assert_delay_agrees(scenario, exact=True)
    assert events == reference_events - 5
