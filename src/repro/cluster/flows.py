"""Flow-level network model with max-min fair bandwidth sharing.

Packet-level simulation would be hopeless at the message counts of a
120-executor ring, and naive FIFO bandwidth queueing produces artifacts
(adding a parallel channel can *lengthen* a transfer). This module uses the
standard *fluid* abstraction instead: every in-flight transfer is a **flow**
with a byte count, a set of capacity constraints (**links**: NIC
egress/ingress, loopback bus) and an optional per-flow rate cap (a single
TCP stream), and at every instant the flows run at the unique **max-min
fair** rates. This is how concurrent TCP streams behave to first order, and
it is what the paper's Figures 13/14 (parallelism) and the driver-fetch
bottleneck depend on.

One incremental solver. The max-min allocation is kept as persistent state
instead of being re-derived: every flow is **pinned** either at its own cap
or at one saturated link (its bottleneck), and each link records which flows
it pins, at what fair **level**, and which *foreign* flows cross it while
pinned elsewhere (grouped by where: flows of one group share one rate). An
allocation is max-min fair exactly when

* a link that pins ``n`` streams has ``level = (capacity - foreign load) / n``,
  no foreign flow on it runs faster than that level, and no pinned flow has
  a cap below it;
* a link that pins nothing carries no more than its capacity.

A join, a leave or :meth:`FlowNetwork.set_link_capacity` touches only the
links the changed flow crosses; :meth:`FlowNetwork._relax` restores the
conditions on one link — re-derive the level, *pull* foreign flows that run
faster than it, *release* pinned flows whose cap is below it — and a level
that moved wakes just the links that depend on it: saturated links its
members cross (``watchers``) and unsaturated ones whose spare room the rise
used up (a guard threshold in the ``ceil`` heap, next to the members' caps).
The walk follows the bottleneck chain and stops where levels stop moving; it
never discovers or re-solves the contention component.

Flows pinned at one link run at one rate, so the link keeps a cumulative
**service clock** (bytes served per pinned flow) and a heap of finish tags
(clock at pin + bytes left). A level change is then ``clock += level * dt``
— no per-member settle — and the link's next completion is its heap's
head. Per event the cost is O(log n) plus the flows whose *pin* changes.

A flow of ``streams=m`` (one message over ``m`` sockets) is ``m`` identical
flows joined at one instant with one completion: it weighs ``m`` wherever
flows are counted, while cap, finish tag and service clock stay per stream
(a fractional ``m`` is a weight: sockets carrying less than the widest).

All changes of one instant — completions included — are applied by a
single end-of-instant flush (``LAZY`` priority), so a completion followed
by a re-join is one delta.

The network owns a transfer's whole timeline. ``flow(..., delay=d)``
announces a flow that joins at the float ``now + d`` itself; announced joins
and projected completions share the network's wake-ups, each scheduled at
its absolute instant (a join is compared with the clock exactly, never
through an epsilon). A wake-up applies every leave and join of its instant,
schedules the flush, and only then fires the finished flows' events *in
place* (:meth:`~repro.sim.events.Event.fire`): callbacks run inside the
wake-up, on a consistent network, and may start flows or read rates. So a
message costs the kernel no latency timeout and no completion hand-off.

Determinism: every container iterated here is insertion-ordered, ties break
on flow id or push sequence, and clocks only advance at flow events. The
hooks :meth:`FlowNetwork.rate_of` and :meth:`FlowNetwork.link_rate` read the
stored levels: they settle no flow and move no clock (``clock += level *
dt`` split in two would round differently), so sampling a run cannot
perturb it. Read in the middle of an instant that has changes pending,
they run that instant's one flush early instead of returning stale rates.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..sim import Environment, Event
from ..sim.core import LAZY

__all__ = ["Link", "FlowNetwork"]

#: residual bytes below which a flow counts as complete
_COMPLETE_EPS = 1e-6
#: residual *time* below which a flow counts as complete (guards against
#: sub-epsilon byte residues at multi-GB/s rates spinning the timer)
_COMPLETE_TIME_EPS = 1e-9
#: relative slack when comparing rates: far above rounding noise, far below
#: the 1e-9 the virtual times are held to
_RATE_EPS = 1e-12
#: slack when comparing heap times
_TIME_EPS = 1e-12

_INF = math.inf


class Link:
    """A capacity constraint shared by flows (NIC direction, memory bus)."""

    __slots__ = ("name", "capacity")

    def __init__(self, capacity: float, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        self.name = name

    def __repr__(self) -> str:
        return f"<Link {self.name!r} {self.capacity:.4g}B/s>"


class _LinkState:
    """The solver's persistent view of one link."""

    __slots__ = ("link", "crossing", "pinned", "streams", "level", "clock",
                 "since", "tags", "head", "ceil", "foreign", "watchers",
                 "guard", "stamp", "dirty")

    def __init__(self, link: Link):
        self.link = link
        self.crossing = 0  # streams on this link, pinned here or not
        #: flows bottlenecked here, every stream of them running at ``level``
        self.pinned: Dict[int, _Flow] = {}
        self.streams = 0  # streams of the pinned flows
        self.level = _INF
        #: bytes served to each pinned stream, valid at time ``since``
        self.clock = 0.0
        self.since = 0.0
        #: finish-tag heap of the pinned flows:
        #: (tag, flow_id, flow, flow.stamp)
        self.tags: List = []
        #: tag of the completion last projected into the network's heap
        self.head: Optional[float] = None
        #: levels at which something must happen, lowest first:
        #: (cap, seq, flow, flow.stamp) releases a pinned flow to its cap,
        #: (guard, seq, link_state, its.guard) wakes an unsaturated link
        self.ceil: List = []
        #: flows crossing this link but pinned elsewhere, grouped by what
        #: sets their rate: the pinning ``_LinkState`` or their own cap
        self.foreign: Dict[Union[_LinkState, float], _Group] = {}
        #: saturated links crossed by flows pinned here -> their ``guard``
        self.watchers: Dict[_LinkState, int] = {}
        self.guard = 0  # version of the guards/watches this link has out
        self.stamp = 0  # version of this link's projected completion
        self.dirty = False


class _Group(dict):
    """Foreign flows of one rate on one link by flow id, and their streams."""

    __slots__ = ("streams",)


#: ``_Flow.pin`` of a flow that is not (or no longer) in the network
_ABSENT = object()


class _Entry:
    """A calendar entry, which the kernel asks for ``_run_callbacks`` only:
    wake-ups and flushes have no value or waiter, so one object serves all."""

    __slots__ = ("_run_callbacks",)

    def __init__(self, run):
        self._run_callbacks = run


class _Flow:
    """One transfer, ``cap`` and ``tag`` per stream. ``pin`` is the
    ``_LinkState`` it is bottlenecked at, ``None`` when it runs at its own
    cap, ``_ABSENT`` outside the network. ``tag`` is its finish tag on the
    pinning link's clock, or, at its own cap, the bytes left at ``since``."""

    __slots__ = ("flow_id", "event", "links", "cap", "streams", "pin", "tag",
                 "since", "stamp")

    def __init__(self, event: Event, links: Tuple[_LinkState, ...],
                 cap: float, nbytes: float, streams: float):
        self.flow_id = -1  # given when it joins
        self.event = event
        self.links = links
        self.cap = cap
        self.streams = streams
        self.pin = _ABSENT
        self.tag = nbytes
        self.since = 0.0
        self.stamp = 0  # bumped by every move: versions this flow's entries


class FlowNetwork:
    """Tracks all in-flight transfers and fair-shares link bandwidth."""

    def __init__(self, env: Environment):
        self.env = env
        self._flows: Dict[Event, _Flow] = {}
        self._links: Dict[Link, _LinkState] = {}
        self._next_id = 0
        #: projected completions: (time, seq, owner, owner.stamp) where the
        #: owner is a flow at its own cap or a link's pinned class
        self._heap: List = []
        #: announced joins: (time, seq, flow)
        self._joins: List = []
        self._seq = 0
        #: instants of the wake-ups still to fire, soonest first
        self._armed: List[float] = []
        self._wake_up = _Entry(self._on_timer)
        self._flush_entry = _Entry(self._flush)
        #: links whose conditions must be re-checked at the end of the instant
        self._work: List[_LinkState] = []
        self._flush_pending = False
        #: completed-flow count, for instrumentation
        self.completed = 0
        #: solver work, for instrumentation: flows re-pinned + links relaxed
        self.solver_ops = 0

    # ----------------------------------------------------------------- public
    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def flow(self, nbytes: float, links: Sequence[Link],
             rate_cap: Optional[float] = None,
             event: Optional[Event] = None, delay: float = 0.0,
             streams: float = 1) -> Event:
        """Start a transfer of ``nbytes`` through ``links``.

        Returns an event that fires (with the flow's id) when the last byte
        has been delivered. ``rate_cap`` bounds this flow's rate regardless
        of link headroom (a single TCP stream); ``None`` means uncapped.
        ``streams`` sends ``nbytes`` on each of that many streams, each under
        ``rate_cap``: that many flows' fair share (2.5 take two and a half).
        ``event`` is a pending event of the caller's to use as that
        completion, callbacks and all, instead of a new one — a caller that
        would only forward the completion to its own event saves the hop.
        ``delay`` announces the transfer now and starts it at the instant
        ``now + delay`` (software overhead, path latency), exactly where a
        ``Timeout(delay)`` would have fired; until then the flow is not in
        the network (:attr:`active_flows`, :meth:`rate_of`). Completion
        callbacks run in place, after every leave and join of their instant
        has been applied: they may start flows or read rates.
        """
        if nbytes < 0:
            raise ValueError(f"negative flow size: {nbytes}")
        if delay < 0:
            raise ValueError(f"negative flow delay: {delay}")
        cap = _INF if rate_cap is None else float(rate_cap)
        if cap <= 0:
            raise ValueError(f"rate cap must be positive, got {rate_cap}")
        if not links and cap == _INF:
            raise ValueError("a flow crossing no link needs a rate cap")
        if streams < 1:
            raise ValueError(f"a flow needs at least one stream, got {streams}")
        if event is None:
            event = Event(self.env, name="flow")
        states = self._links
        flow = _Flow(event,
                     tuple([states.get(link) or self._state(link)
                            for link in links]),
                     cap, float(nbytes), streams)
        if delay > 0:
            self._seq += 1
            when = self.env._now + delay
            heappush(self._joins, (when, self._seq, flow))
            self._wake_by(when, 0.0)
        elif self._join(flow):
            self._schedule_flush()
        else:
            event.succeed(flow.flow_id)
        return event

    def _join(self, flow: _Flow) -> bool:
        """Put ``flow`` in the network now; False for an empty one, which
        is complete at once."""
        flow.flow_id = self._next_id
        self._next_id += 1
        if flow.tag == 0:
            return False
        self._flows[flow.event] = flow
        # First guess at the bottleneck: the lowest rate the flow meets —
        # its cap, a settled saturated link's level, an equal split of any
        # other link. The flush corrects a wrong guess.
        dest, bound = None, flow.cap
        for state in flow.links:
            share = (state.level if state.pinned and not state.dirty
                     else state.link.capacity
                     / (state.crossing + flow.streams))
            if share < bound:
                dest, bound = state, share
        self._move(flow, dest)
        return True

    def set_link_capacity(self, link: Link, capacity: float) -> None:
        """Change ``link``'s capacity and re-share flows crossing it.

        Models in-place NIC degradation/restoration (a congested or rate-
        limited driver NIC): the link's level is re-derived under the new
        capacity at the current instant and the change propagates along the
        bottleneck chain; flows elsewhere are untouched. No-op on the rates
        when the link is idle.
        """
        if capacity <= 0:
            raise ValueError(
                f"link capacity must be positive, got {capacity}")
        link.capacity = float(capacity)
        state = self._links.get(link)
        if state is not None:
            self._mark(state)
            self._flush()

    def rate_of(self, event: Event) -> float:
        """Current rate of ``event``'s flow, all streams (testing hook)."""
        if self._work:
            self._flush()
        flow = self._flows.get(event)
        if flow is None:
            raise KeyError("no active flow for that event")
        return flow.streams * (flow.cap if flow.pin is None
                               else flow.pin.level)

    def link_rate(self, link: Link) -> float:
        """Aggregate allocated rate (bytes/s) crossing ``link`` right now.

        Read-only: used by NIC-utilization monitors; 0.0 for an idle link.
        """
        if self._work:
            self._flush()
        state = self._links.get(link)
        if state is None:
            return 0.0
        rate = state.streams * state.level if state.pinned else 0.0
        for key, group in state.foreign.items():
            rate += ((key if key.__class__ is float else key.level)
                     * group.streams)
        return rate

    # ------------------------------------------------------------ bookkeeping
    def _state(self, link: Link) -> _LinkState:
        state = self._links[link] = _LinkState(link)
        return state

    def _mark(self, state: _LinkState) -> None:
        if not state.dirty:
            state.dirty = True
            self._work.append(state)

    def _schedule_flush(self) -> None:
        if not self._flush_pending:
            self._flush_pending = True
            self.env.schedule(self._flush_entry, 0.0, priority=LAZY)

    def _advance(self, state: _LinkState, now: float) -> None:
        """Bring ``state``'s service clock to ``now`` at its current level."""
        if state.pinned:
            dt = now - state.since
            if dt > 0:
                state.clock += state.level * dt
        state.since = now

    def _move(self, flow: _Flow,
              dest: Union[_LinkState, None, object]) -> None:
        """Re-pin ``flow`` at ``dest`` (a link state, ``None`` for its own
        cap, ``_ABSENT`` to leave) carrying its remaining bytes across, and
        mark every link it crosses for the flush."""
        self.solver_ops += 1
        now = self.env._now
        src = flow.pin
        if src is _ABSENT:
            remaining = flow.tag
        elif src is None:
            remaining = flow.tag - flow.cap * (now - flow.since)
        else:
            self._advance(src, now)
            remaining = flow.tag - src.clock
        if remaining < 0:
            remaining = 0.0
        flow_id = flow.flow_id
        streams = flow.streams
        old_key = flow.cap if src is None else src
        new_key = flow.cap if dest is None else dest
        work = self._work
        for state in flow.links:
            if src is _ABSENT:
                state.crossing += streams
            elif dest is _ABSENT:
                state.crossing -= streams
            if state is src:
                del state.pinned[flow_id]
                state.streams -= streams
                if not state.pinned:  # the class dissolves: rebase its clock
                    state.streams = 0  # exactly, whatever fractions summed to
                    state.level = _INF
                    state.clock = 0.0
                    state.head = None
                    state.tags.clear()
                    state.ceil.clear()
                    state.watchers.clear()
            elif src is not _ABSENT:
                group = state.foreign[old_key]
                del group[flow_id]
                group.streams -= streams
                if not group:
                    del state.foreign[old_key]
            if state is dest:
                self._advance(state, now)
                if not state.pinned:
                    # provisional, so that links relaxed before this one
                    # see a finite rate; its own relax sets the real level
                    state.level = state.link.capacity
                state.pinned[flow_id] = flow
                state.streams += streams
            elif dest is not _ABSENT:
                group = state.foreign.get(new_key)
                if group is None:
                    group = state.foreign[new_key] = _Group()
                    group.streams = streams
                else:
                    group.streams += streams
                group[flow_id] = flow
            if not state.dirty:
                state.dirty = True
                work.append(state)
        flow.pin = dest
        flow.stamp += 1
        if dest is None:
            flow.tag = remaining
            flow.since = now
            self._seq += 1
            heappush(self._heap, (now + remaining / flow.cap, self._seq,
                                  flow, flow.stamp))
        elif dest is not _ABSENT:
            flow.tag = dest.clock + remaining
            heappush(dest.tags, (flow.tag, flow_id, flow, flow.stamp))
            if flow.cap != _INF:
                self._seq += 1
                heappush(dest.ceil, (flow.cap, self._seq, flow, flow.stamp))

    # ------------------------------------------------------------- the solver
    def _flush(self) -> None:
        """Restore the max-min conditions on every marked link, following
        level changes outward until nothing moves, then re-arm the timer."""
        self._flush_pending = False
        work = self._work
        budget = 64 + 16 * (len(work) + len(self._flows))
        done = 0
        while done < len(work):
            if done > budget:  # pragma: no cover - safety net
                raise RuntimeError("max-min update failed to converge")
            self._relax(work[done])
            done += 1
        work.clear()
        self._arm_timer()

    def _relax(self, state: _LinkState) -> None:
        """Restore the max-min conditions on one marked link and wake the
        links that depend on its level if it moved. ``state.dirty`` stays
        set throughout, so the moves made here do not re-queue it."""
        self.solver_ops += 1
        capacity = state.link.capacity
        foreign = state.foreign
        ceil = state.ceil
        while True:
            load = 0.0
            fastest = 0.0
            fastest_key = None
            risers = 0  # foreign streams whose rate is another link's level
            for key, group in foreign.items():
                if key.__class__ is float:
                    rate = key
                else:
                    rate = key.level
                    risers += group.streams
                load += rate * group.streams
                if rate > fastest:
                    fastest = rate
                    fastest_key = key
            n = state.streams
            if n:
                level = (capacity - load) / n
            elif load > capacity * (1 + _RATE_EPS):
                level = 0.0  # over capacity and nobody to slow down yet
            else:
                level = _INF
                break
            if fastest > level * (1 + _RATE_EPS):
                group = foreign[fastest_key]
                self._move(group[next(iter(group))], state)
                continue
            if ceil and ceil[0][0] < level * (1 - _RATE_EPS):
                _value, _seq, owner, version = heappop(ceil)
                if owner.__class__ is _Flow:
                    if owner.stamp == version:
                        self._move(owner, None)
                elif owner.guard == version:
                    self._mark(owner)
                continue
            break

        now = self.env._now
        old = state.level
        if n:
            if not level > 0:  # pragma: no cover - safety net
                raise RuntimeError(
                    f"non-positive fair share {level!r} on {state.link!r}")
            if abs(level - old) <= _RATE_EPS * old:
                level = old  # rounding noise: keep the rate, wake nobody
        if level != old:
            self._advance(state, now)
            state.level = level
            for watcher, version in state.watchers.items():
                if watcher.guard == version:
                    self._mark(watcher)
            state.watchers.clear()
        if n:
            self._project(state, level != old)

        # Tell the links this one depends on when to wake it again: on any
        # level change while it is saturated, else when the risers have
        # used up their equal share of its spare room.
        state.guard += 1
        if risers:
            version = state.guard
            for key in foreign:
                if key.__class__ is float:
                    continue
                if n:
                    key.watchers[state] = version
                else:
                    self._seq += 1
                    heappush(key.ceil,
                             (key.level + (capacity - load) / risers,
                              self._seq, state, version))
                    if len(key.ceil) > 64 + 8 * len(key.pinned):
                        self._compact(key)
        state.dirty = False

    def _compact(self, state: _LinkState) -> None:
        """Drop superseded entries from a ``ceil`` heap (guards are
        re-issued on every relax of the guarded link)."""
        state.ceil = [
            entry for entry in state.ceil
            if (entry[2].stamp if entry[2].__class__ is _Flow
                else entry[2].guard) == entry[3]]
        heapify(state.ceil)

    # -------------------------------------------------------------- completion
    def _project(self, state: _LinkState, force: bool) -> None:
        """Push ``state``'s next completion if its head or level changed."""
        tags = state.tags
        while tags:
            tag, _flow_id, flow, version = tags[0]
            if flow.stamp == version:
                break
            heappop(tags)
        else:  # pragma: no cover - a pinned flow always has a live tag
            return
        if force or tag != state.head:
            state.head = tag
            state.stamp += 1
            self._seq += 1
            finish = state.since + (tag - state.clock) / state.level
            heappush(self._heap, (finish, self._seq, state, state.stamp))

    def _arm_timer(self) -> None:
        """Have a wake-up cover the earliest announced join and, unless
        that join comes first (it may move the projection, and its wake-up
        arms again), the earliest projected completion."""
        heap = self._heap
        joins = self._joins
        while heap and heap[0][2].stamp != heap[0][3]:
            heappop(heap)  # superseded projection
        if joins:
            self._wake_by(joins[0][0], 0.0)
        if heap and not (joins and joins[0][0] <= heap[0][0]):
            self._wake_by(max(heap[0][0], self.env._now), _TIME_EPS)

    def _wake_by(self, when: float, slack: float) -> None:
        """Unless a wake-up is due by ``when + slack`` already, schedule one
        at ``when``: a join happens at its own instant exactly, a completion
        may ride a wake-up up to ``_TIME_EPS`` late."""
        armed = self._armed
        if armed and armed[0] <= when + slack:
            return
        heappush(armed, when)
        # At the absolute instant: ``now + (when - now)`` may differ from
        # ``when`` in the last bit, which would start a join an ulp off the
        # instant announced and make a completion's instant depend on when
        # its wake-up was armed.
        self.env.schedule_at(self._wake_up, when)

    def _on_timer(self) -> None:
        """Wake-up: apply every leave and join of the instant, then run the
        finished flows' callbacks in place — they see a consistent network
        and may re-enter :meth:`flow`. (One whose projection has moved on
        finds nothing due and only re-arms.)"""
        heappop(self._armed)  # wake-ups fire soonest first
        now = self.env._now
        heap = self._heap
        finished: List[_Flow] = []
        while heap:
            finish, _seq, owner, entry_version = heap[0]
            if finish > now + _TIME_EPS:
                break
            heappop(heap)
            if owner.stamp != entry_version:
                continue
            if owner.__class__ is _Flow:
                finished.append(owner)
                continue
            # A link's pinned class: its head is due, and so is every
            # flow whose tag the clock has reached to within the epsilons.
            self._advance(owner, now)
            slack = max(_COMPLETE_EPS, owner.level * _COMPLETE_TIME_EPS)
            tags = owner.tags
            before = len(finished)
            while tags:
                tag, _flow_id, flow, flow_version = tags[0]
                if flow.stamp == flow_version:
                    if tag - owner.clock > slack:
                        break
                    finished.append(flow)
                heappop(tags)
            if len(finished) == before:  # numeric drift: re-project
                self._project(owner, True)
        for flow in finished:
            self._move(flow, _ABSENT)
            del self._flows[flow.event]
            self.completed += 1
        joins = self._joins
        while joins and joins[0][0] <= now:  # exactly: no epsilon
            flow = heappop(joins)[2]
            if not self._join(flow):
                finished.append(flow)
        if self._work:
            self._schedule_flush()
        else:
            self._arm_timer()
        for flow in finished:
            flow.event.fire(flow.flow_id)

    def __repr__(self) -> str:
        return (f"<FlowNetwork active={len(self._flows)} "
                f"completed={self.completed}>")
