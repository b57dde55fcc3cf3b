"""The metrics store's instruments and quantile, and the listener over the
event vocabulary."""

import pytest

from repro.obs import MetricsListener, MetricsStore
from repro.obs.metrics import quantile
from tests.obs.test_events import SAMPLES


def test_counter_monotonic():
    c = MetricsStore().counter("x")
    c.inc(0.0)
    c.inc(0.0, 2.5)
    assert c.total == 3.5
    with pytest.raises(ValueError):
        c.inc(0.0, -1.0)


def test_histogram_quantiles_exact():
    store = MetricsStore()
    h = store.histogram("x")
    for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
        h.observe(0.0, v)
    ordered = store.samples("x")
    assert ordered == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert quantile(ordered, 0.5) == 3.0
    assert quantile(ordered, 0.0) == 1.0
    assert quantile(ordered, 1.0) == 5.0
    with pytest.raises(ValueError):
        quantile(ordered, 1.5)


def test_quantile_is_nearest_rank():
    """The smallest sample with at least q*n samples at or below it."""
    assert quantile([1.0, 2.0], 0.5) == 1.0
    ordered = [float(v) for v in range(1, 21)]
    assert quantile(ordered, 0.95) == 19.0
    assert quantile(ordered, 0.0) == 1.0
    assert quantile(ordered, 1.0) == 20.0
    assert quantile([7.0], 0.5) == 7.0


def test_empty_histogram():
    store = MetricsStore()
    store.histogram("x")
    assert store.samples("x") == []
    assert quantile(store.samples("x"), 0.5) == 0.0
    assert "histogram x: n=0 mean=0" in store.summary()


def test_registry_instruments_are_singletons():
    """One series per (name, labels); the whole-run query is unlabeled."""
    store = MetricsStore()
    assert store.counter("a") is store.counter("a")
    assert store.histogram("c") is store.histogram("c")
    assert store.names() == [("counter", "a"), ("histogram", "c")]


def test_listener_feeds_registry_from_samples():
    listener = MetricsListener().replay(SAMPLES)
    store = listener.store
    assert store.total("events.total") == len(SAMPLES)
    assert store.total("tasks.finished", status="ok") == 1
    assert store.total("tasks.finished", job=1) == 1
    assert store.samples("tasks.duration_seconds", stage=3) == [
        pytest.approx(0.2)]
    assert store.samples("messages.size_bytes") == [4096.0]
    assert store.total("messages.bytes", transport="SC") == 4096.0
    assert len(store.samples("ring.hop_seconds")) == 1
    assert len(store.samples("imm.merge_seconds")) == 1
    assert store.total("blocks.put") == 1
    assert store.total("jobs.finished", succeeded=True) == 1
    summary = listener.summary()
    assert "counter   tasks.finished: total=1 windows=1 series=1" in summary
    assert "  status=ok: total=1 windows=1" in summary
    assert "  stage=3: n=1 " in summary
    assert "histogram messages.size_bytes" in summary


def test_summary_breaks_a_name_down_by_label_in_numeric_order():
    store = MetricsStore()
    for stage in (10, 2):
        store.histogram("d", stage=stage).observe(0.0, float(stage))
    lines = store.summary(by={"d": "stage"}).splitlines()
    assert lines[0].startswith("histogram d: n=2 ")
    assert lines[1].startswith("  stage=2: n=1 mean=2 ")
    assert lines[2].startswith("  stage=10: n=1 mean=10 ")
