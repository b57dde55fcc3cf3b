"""The engine-wide event bus (Spark ``ListenerBus`` analogue).

A :class:`EventBus` fans typed :class:`~repro.obs.events.TraceEvent`
objects out to attached listeners, synchronously, in subscription order.
Listeners are plain callables or objects with an ``on_event(event)``
method. Emission never creates simulation events — attaching a listener
can therefore never perturb virtual time; with no listener attached,
:meth:`EventBus.emit` is a single attribute check.

Instrumentation call sites should guard expensive field computation with
:attr:`EventBus.active` so a detached bus costs ~nothing in wall-clock
time either.
"""

from __future__ import annotations

from typing import Any, Callable, List, Union

from .events import TraceEvent
from .tracing import Tracer

__all__ = ["EventBus", "Listener", "RecordingListener"]

#: anything the bus can deliver to
Listener = Union[Callable[[TraceEvent], Any], "object"]


def _delivery(listener: Listener) -> Callable[[TraceEvent], Any]:
    on_event = getattr(listener, "on_event", None)
    if callable(on_event):
        return on_event
    if callable(listener):
        return listener
    raise TypeError(
        f"listener must be callable or have on_event(), got {listener!r}")


class EventBus:
    """Synchronous fan-out of trace events to subscribed listeners."""

    def __init__(self) -> None:
        self._listeners: List[Listener] = []
        self._deliveries: List[Callable[[TraceEvent], Any]] = []
        #: events emitted while at least one listener was attached
        self.emitted = 0
        #: causal span allocator; only advances while the bus is active
        self.tracer = Tracer(self)

    @property
    def active(self) -> bool:
        """True when at least one listener is attached.

        Instrumentation uses this as its fast-path guard: when False, no
        event objects are constructed at all.
        """
        return bool(self._deliveries)

    def subscribe(self, listener: Listener) -> Listener:
        """Attach ``listener``; returns it (for unsubscribe)."""
        delivery = _delivery(listener)
        self._listeners.append(listener)
        self._deliveries.append(delivery)
        return listener

    def unsubscribe(self, listener: Listener) -> None:
        """Detach a previously subscribed listener."""
        try:
            index = self._listeners.index(listener)
        except ValueError:
            raise ValueError(f"{listener!r} is not subscribed") from None
        del self._listeners[index]
        del self._deliveries[index]

    def close(self) -> None:
        """Detach every listener (idempotent).

        Context teardown calls this so a job that raised mid-stage (or a
        caller that forgot to unsubscribe) cannot leave listeners
        attached — on a shared bus each leaked listener keeps receiving
        (and retaining) every later event.
        """
        self._listeners.clear()
        self._deliveries.clear()

    def emit(self, event: TraceEvent) -> None:
        """Deliver ``event`` to every listener, in subscription order."""
        if not self._deliveries:
            return
        self.emitted += 1
        for delivery in self._deliveries:
            delivery(event)

    def __repr__(self) -> str:
        return f"<EventBus listeners={len(self._listeners)} emitted={self.emitted}>"


class RecordingListener:
    """Collects every event in memory (tests, in-process analysis).

    Usage::

        rec = RecordingListener()
        sc.event_bus.subscribe(rec)
        ...
        report = attribute_critical_path(rec.events)
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        #: what the bus calls: the list's own append, no frame per event
        self.on_event = self.events.append

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All recorded events with the given ``kind`` discriminator."""
        return [e for e in self.events if e.kind == kind]

    def __repr__(self) -> str:
        return f"<RecordingListener events={len(self.events)}>"
