"""The metrics store over virtual time: windows, label-subset queries,
exact quantiles, and the listener on a recorded run."""

import pytest

from repro.obs import MetricsListener, MetricsStore

from .helpers import run_lr


# ------------------------------------------------------------- instruments
def test_counter_windows_and_total():
    store = MetricsStore(window=0.01)
    c = store.counter("bytes", node="n0")
    c.inc(0.001, 10.0)
    c.inc(0.009, 5.0)
    c.inc(0.011, 2.0)
    assert c.buckets == {0: 15.0, 1: 2.0}
    assert c.total == 17.0
    with pytest.raises(ValueError):
        c.inc(0.02, -1.0)


def test_counter_is_get_or_create_per_labelset():
    store = MetricsStore()
    assert store.counter("x", a=1) is store.counter("x", a=1)
    assert store.counter("x", a=1) is not store.counter("x", a=2)


def test_gauge_last_write_wins_within_window():
    store = MetricsStore(window=0.01)
    g = store.gauge("util", node="n0")
    g.set(0.002, 0.3)
    g.set(0.008, 0.9)   # later stamp in the same window wins
    g.set(0.015, 0.5)
    assert g.buckets[0] == 0.9
    assert g.last == 0.5


def test_histogram_exact_quantiles():
    store = MetricsStore(window=1.0)
    h = store.histogram("dur")
    for i in range(100):
        h.observe(0.5, float(i))
    assert store.quantile("dur", 0.5) == 49.0
    assert store.quantile("dur", 0.95) == 94.0
    assert store.quantile("dur", 0.99) == 98.0
    assert store.quantile("dur", 0.0) == 0.0
    assert store.quantile("dur", 1.0) == 99.0
    with pytest.raises(ValueError):
        store.quantile("dur", 1.5)


def test_histogram_time_range_query():
    store = MetricsStore(window=0.01)
    h = store.histogram("dur")
    h.observe(0.005, 1.0)
    h.observe(0.015, 2.0)
    h.observe(0.025, 3.0)
    assert sorted(h.samples()) == [1.0, 2.0, 3.0]
    assert sorted(h.samples(t0=0.01)) == [2.0, 3.0]
    assert sorted(h.samples(t0=0.01, t1=0.019)) == [2.0]


def test_label_subset_matching():
    store = MetricsStore()
    store.counter("bytes", channel="0", executor=1).inc(0.0, 5.0)
    store.counter("bytes", channel="0", executor=2).inc(0.0, 7.0)
    store.counter("bytes", channel="1", executor=1).inc(0.0, 11.0)
    assert store.total("bytes") == 23.0
    assert store.total("bytes", channel="0") == 12.0
    assert store.total("bytes", executor=1) == 16.0
    assert store.total("bytes", channel="1", executor=1) == 11.0
    assert store.total("bytes", channel="9") == 0.0


def test_rate_merges_series_per_window():
    store = MetricsStore(window=0.5)
    store.counter("n", k="a").inc(0.1, 2.0)
    store.counter("n", k="b").inc(0.2, 4.0)
    store.counter("n", k="a").inc(0.7, 1.0)
    assert store.rate("n") == [(0.0, 12.0), (0.5, 2.0)]


def test_store_rejects_bad_window():
    with pytest.raises(ValueError):
        MetricsStore(window=0.0)


# ---------------------------------------------------------------- listener
def test_listener_replay_from_recorded_run():
    _sc, rec = run_lr("split", trace=True, nic=True, num_iterations=2)
    ts = MetricsListener(window=0.01).replay(rec.events)
    store = ts.store

    n_tasks = sum(1 for e in rec.events if e.kind == "task_end")
    assert store.total("tasks.finished") == n_tasks
    # task series carry a job label resolved through stage_submitted
    jobs = {e.job_id for e in rec.events if e.kind == "job_start"}
    per_job = sum(store.total("tasks.finished", job=j) for j in jobs)
    assert per_job == n_tasks

    sent = sum(e.nbytes for e in rec.events if e.kind == "message_sent")
    assert store.total("messages.bytes") == pytest.approx(sent)

    hops = [e for e in rec.events if e.kind == "ring_hop"]
    assert store.total("ring.bytes") == pytest.approx(
        sum(h.send_bytes for h in hops))

    durations = sorted(e.duration for e in rec.events
                       if e.kind == "task_end")
    assert store.quantile("tasks.duration_seconds", 0.5) in durations
    assert store.quantile("tasks.duration_seconds", 1.0) == durations[-1]

    # NIC gauges exist for the driver node in both directions
    assert store.gauges("nic.utilization", node="driver", direction="in")
    assert store.gauges("nic.utilization", node="driver", direction="out")

    summary = ts.summary()
    assert "histogram tasks.duration_seconds" in summary
    assert "p95" in summary
    stages = {e.stage_id for e in rec.events if e.kind == "task_end"}
    for stage in stages:
        assert f"\n  stage={stage}: n=" in summary


def test_listener_live_matches_replay():
    _sc, rec = run_lr("split", trace=True, num_iterations=1)
    live = MetricsListener(window=0.01)
    for event in rec.events:
        live.on_event(event)
    replayed = MetricsListener(window=0.01).replay(rec.events)
    assert live.store.names() == replayed.store.names()
    for _kind, name in live.store.names():
        assert live.store.total(name) == replayed.store.total(name)


def test_listener_on_empty_log():
    ts = MetricsListener().replay([])
    assert ts.store.names() == []
    assert ts.store.summary() == ""
