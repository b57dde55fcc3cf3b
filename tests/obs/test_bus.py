"""Tests for the EventBus and its listeners."""

import pytest

from repro.obs import EventBus, PhaseSpan, RecordingListener


def _event(t=1.0):
    return PhaseSpan(time=t, key="x", seconds=0.5)


def test_inactive_bus_drops_events():
    bus = EventBus()
    assert not bus.active
    bus.emit(_event())
    assert bus.emitted == 0


def test_subscribe_activates_and_delivers_in_order():
    bus = EventBus()
    seen = []
    bus.subscribe(lambda e: seen.append(("a", e)))
    bus.subscribe(lambda e: seen.append(("b", e)))
    assert bus.active
    assert len(bus._listeners) == 2
    event = _event()
    bus.emit(event)
    assert seen == [("a", event), ("b", event)]
    assert bus.emitted == 1


def test_on_event_object_listener():
    bus = EventBus()
    rec = RecordingListener()
    bus.subscribe(rec)
    bus.emit(_event(1.0))
    bus.emit(PhaseSpan(time=2.0, key="y", seconds=1.0))
    assert len(rec.events) == 2
    assert [e.key for e in rec.of_kind("phase")] == ["x", "y"]


def test_unsubscribe_deactivates():
    bus = EventBus()
    rec = bus.subscribe(RecordingListener())
    bus.unsubscribe(rec)
    assert not bus.active
    bus.emit(_event())
    assert rec.events == []


def test_unsubscribe_unknown_listener_raises():
    bus = EventBus()
    with pytest.raises(ValueError):
        bus.unsubscribe(RecordingListener())


def test_non_listener_rejected():
    bus = EventBus()
    with pytest.raises(TypeError):
        bus.subscribe(object())


def test_emission_is_synchronous_and_reentrant_safe():
    """A listener emitting follow-up events must not lose deliveries."""
    bus = EventBus()
    seen = []

    def echo(event):
        seen.append(event.key)
        if event.key == "outer":
            bus.emit(PhaseSpan(time=event.time, key="inner", seconds=0.0))

    bus.subscribe(echo)
    bus.emit(PhaseSpan(time=1.0, key="outer", seconds=0.0))
    assert seen == ["outer", "inner"]
