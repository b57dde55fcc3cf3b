"""The discrete-event simulation environment.

:class:`Environment` owns the virtual clock and the event queue. The queue is
an indexed bucket calendar (:class:`~repro.sim.calendar.BucketCalendar`):
events are bucketed by exact timestamp with O(1) enqueue/dequeue for the
same-instant bursts cluster simulations produce, and only distinct timestamps
go through a heap. Pops follow ``(time, priority, insertion order)`` exactly
as the previous ``(time, priority, sequence)`` binary heap did, so every
simulation in this repository stays bit-for-bit deterministic for a fixed
seed — traces are byte-identical to the heap implementation.

Typical usage::

    env = Environment()

    def pinger():
        yield env.timeout(1.0)
        return "pong"

    proc = env.process(pinger())
    env.run()
    assert env.now == 1.0 and proc.value == "pong"
"""

from __future__ import annotations

import gc
from typing import Any, Generator, Optional

from .calendar import BucketCalendar
from .events import Event, Process, Timeout

__all__ = ["Environment", "EmptySchedule", "NORMAL", "URGENT", "LAZY"]

#: Priority for ordinary events.
NORMAL = 1
#: Priority for "urgent" kernel bookkeeping events (fire before normal ones
#: scheduled at the same instant).
URGENT = 0
#: Priority for end-of-instant bookkeeping (fires after every normal event
#: scheduled at the same instant — e.g. batched flow reallocation).
LAZY = 2


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Starting value for the virtual clock (seconds).

    Notes
    -----
    All times are ``float`` seconds. Sub-microsecond deltas are routine
    (network latencies); accumulating them as floats is fine for the run
    lengths in this repository (hours of virtual time at most).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue = BucketCalendar()
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: cooperative-driver hook (see :mod:`repro.service.reactor`):
        #: when attached, ``run(until=event)`` calls issued from a
        #: registered worker thread are delegated to the cooperator, which
        #: parks the calling thread and lets the owning reactor pump the
        #: event loop instead. ``None`` (the default) leaves the blocking
        #: driver path untouched.
        self._cooperator: Optional[Any] = None

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the host-perf throughput metric)."""
        return self._seq

    # -- event construction --------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "",
                critical: bool = False) -> Process:
        """Start a new :class:`Process` running ``generator``.

        ``critical=True`` marks infrastructure that nobody joins: its
        failures crash the simulation instead of being swallowed.
        """
        return Process(self, generator, name=name, critical=critical)

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Insert a triggered event into the queue ``delay`` from now."""
        self._seq += 1
        self._queue.push(self._now + delay, priority, event)

    def schedule_at(self, event: Event, when: float,
                    priority: int = NORMAL) -> None:
        """Insert a triggered event into the queue at the absolute time
        ``when``.

        For a caller that already holds the instant an event must fire at:
        going back through a delay would schedule it at
        ``now + (when - now)``, which is not always ``when`` in floating
        point.
        """
        if not when >= self._now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule at {when!r}: clock is already at "
                f"{self._now!r}")
        self._seq += 1
        self._queue.push(when, priority, event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        if not self._queue:
            return float("inf")
        return self._queue.peek()

    def step(self) -> None:
        """Process the single next event (advancing the clock to it)."""
        if not self._queue:
            raise EmptySchedule()
        when, event = self._queue.pop()
        if when < self._now:  # pragma: no cover - calendar invariant guard
            raise AssertionError("event scheduled in the past")
        self._now = when
        event._run_callbacks()

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be

        * ``None`` — run until the event queue drains,
        * a number — run until the clock reaches that time,
        * an :class:`Event` — run until that event is *processed*, returning
          its value (re-raising its exception if it failed).

        The cyclic garbage collector is suspended for the duration of the
        dispatch loop: the kernel allocates events and processes (which form
        reference cycles through their callback lists) at a rate that keeps
        the collector permanently busy, and one collection at the end is
        measurably cheaper than thousands of incremental passes. Purely a
        host-speed optimization — no simulated quantity can observe it.
        """
        cooperator = self._cooperator
        if cooperator is not None and cooperator.owns_current_thread():
            # A service worker thread may not pump the event loop itself
            # (the reactor owns it); park until ``until`` fires instead.
            return cooperator.await_event(until)
        gc_enabled = gc.isenabled()
        if gc_enabled:
            gc.disable()
        try:
            return self._run(until)
        finally:
            if gc_enabled:
                gc.enable()

    def _run(self, until: Optional[Any]) -> Any:
        queue = self._queue
        pop = queue.pop
        if until is None:
            # ``queue._len`` instead of ``while queue`` skips a Python
            # __bool__ call per event on the hottest loop in the repo.
            while queue._len:
                when, event = pop()
                self._now = when
                event._run_callbacks()
            return None

        if isinstance(until, Event):
            if until.processed:
                # Already ran its callbacks in a previous run() — return its
                # outcome immediately instead of draining the queue.
                if until.exception is not None:
                    raise until.exception
                return until.value

            done = False

            def _mark(_event: Event) -> None:
                nonlocal done
                done = True

            until.add_callback(_mark)
            try:
                while not done:
                    if not queue._len:
                        raise EmptySchedule(
                            f"simulation ran dry before {until!r} fired"
                        )
                    when, event = pop()
                    self._now = when
                    event._run_callbacks()
            finally:
                # Detach on any exit so an abandoned run() does not leave a
                # stale closure on the event's callback list.
                if not done and until.callbacks is not None:
                    try:
                        until.callbacks.remove(_mark)
                    except ValueError:  # pragma: no cover - defensive
                        pass
            if until.exception is not None:
                raise until.exception
            return until.value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(
                f"cannot run until {horizon:g}: clock is already at {self._now:g}"
            )
        while queue._len and queue.peek() <= horizon:
            when, event = pop()
            self._now = when
            event._run_callbacks()
        self._now = horizon
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self._now:g} pending={len(self._queue)}>"
