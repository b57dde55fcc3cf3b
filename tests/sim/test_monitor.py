"""Tests for the Stopwatch instrumentation."""

import pytest

from repro.sim import Environment, Stopwatch


def test_stopwatch_add():
    env = Environment()
    sw = Stopwatch(env)
    sw.add("x", 1.5)
    sw.add("x", 0.5)
    assert sw.total("x") == 2.0
    assert sw.total("missing") == 0.0


def test_stopwatch_rejects_negative():
    sw = Stopwatch(Environment())
    with pytest.raises(ValueError):
        sw.add("x", -1.0)


def test_stopwatch_span_scope():
    env = Environment()
    sw = Stopwatch(env)

    def body():
        with sw.span("scoped"):
            yield env.timeout(1.25)

    env.run(until=env.process(body()))
    assert sw.total("scoped") == 1.25


def test_stopwatch_span_records_on_exception():
    """span closes the bracket when the body raises."""
    env = Environment()
    sw = Stopwatch(env)

    def body():
        try:
            with sw.span("doomed"):
                yield env.timeout(0.75)
                raise RuntimeError("boom")
        except RuntimeError:
            yield env.timeout(0.0)

    env.run(until=env.process(body()))
    assert sw.total("doomed") == 0.75


def test_on_record_fires_for_every_recording_style():
    env = Environment()
    seen = []
    sw = Stopwatch(env, on_record=lambda k, s, now: seen.append((k, s, now)))
    sw.add("a", 1.0)

    def body():
        yield env.timeout(2.0)
        with sw.span("c"):
            yield env.timeout(3.0)

    env.run(until=env.process(body()))
    assert seen == [("a", 1.0, 0.0), ("c", 3.0, 5.0)]
