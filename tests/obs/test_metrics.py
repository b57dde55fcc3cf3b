"""The metrics store's instruments and quantile, the listener over the
event vocabulary, and the NIC monitor."""

import pytest

from repro.obs import MetricsListener, MetricsStore, NicMonitor
from repro.obs.metrics import quantile
from tests.obs.helpers import run_lr
from tests.obs.test_events import SAMPLES


def test_counter_monotonic():
    c = MetricsStore().counter("x")
    c.inc(0.0)
    c.inc(0.0, 2.5)
    assert c.total == 3.5
    with pytest.raises(ValueError):
        c.inc(0.0, -1.0)


def test_gauge_last_write_wins():
    g = MetricsStore(window=1.0).gauge("x")
    g.set(0.5, 1.0)
    g.set(0.7, 2.0)
    assert g.last == 2.0
    assert g.updated_at == 0.7


def test_histogram_quantiles_exact():
    store = MetricsStore()
    h = store.histogram("x")
    for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
        h.observe(0.0, v)
    assert store.samples("x") == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert store.quantile("x", 0.5) == 3.0
    assert store.quantile("x", 0.0) == 1.0
    assert store.quantile("x", 1.0) == 5.0
    with pytest.raises(ValueError):
        store.quantile("x", 1.5)


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
    assert store.quantile("x", 0.5) == 0.0
    assert "histogram x: n=0 mean=0" in store.summary()


def test_registry_instruments_are_singletons():
    """One series per (name, labels); the whole-run query is unlabeled."""
    store = MetricsStore()
    assert store.counter("a") is store.counter("a")
    assert store.gauge("b") is store.gauge("b")
    assert store.histogram("c") is store.histogram("c")
    assert store.names() == [("counter", "a"), ("gauge", "b"),
                             ("histogram", "c")]


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
    (out,) = store.gauges("nic.utilization", node="driver",
                          direction="out")
    assert out.last == 0.16
    summary = listener.summary()
    assert "counter   tasks.finished: total=1 windows=1 series=1" in summary
    assert "  status=ok: total=1 windows=1" in summary
    assert "  stage=3: n=1 " in summary
    assert "histogram messages.size_bytes" in summary


def test_summary_prints_one_line_per_gauge_series():
    """Every gauge series keeps its own last value: merged, the line
    showed whichever series sorted last, not the busiest NIC."""
    store = MetricsStore()
    store.gauge("nic.utilization", node="a").set(0.1, 0.9)
    store.gauge("nic.utilization", node="b").set(0.2, 0.1)
    lines = store.summary().splitlines()
    assert lines == ["gauge     nic.utilization{node=a}: last=0.9 @ 0.1s",
                     "gauge     nic.utilization{node=b}: last=0.1 @ 0.2s"]


def test_summary_breaks_a_name_down_by_label_in_numeric_order():
    store = MetricsStore()
    for stage in (10, 2):
        store.histogram("d", stage=stage).observe(0.0, float(stage))
    lines = store.summary(by={"d": "stage"}).splitlines()
    assert lines[0].startswith("histogram d: n=2 ")
    assert lines[1].startswith("  stage=2: n=1 mean=2 ")
    assert lines[2].startswith("  stage=10: n=1 mean=10 ")


def test_nic_monitor_samples_every_node_and_driver():
    sc, recorder = run_lr(trace=True, nic=True, num_iterations=1)
    samples = recorder.of_kind("nic_sample")
    assert samples
    # 2 worker nodes plus the driver's own host (node_id -1).
    assert {s.node_id for s in samples} == {-1, 0, 1}
    assert {s.hostname for s in samples if s.is_driver} == {"driver-host"}
    for s in samples:
        assert 0.0 <= s.in_utilization <= 1.0 + 1e-9
        assert 0.0 <= s.out_utilization <= 1.0 + 1e-9


def test_nic_monitor_catches_heavy_transfers():
    """With long-lived flows the sampler sees a busy (here: saturated)
    driver NIC — the paper's Figure 4 bottleneck, observed live."""
    import numpy as np

    from repro.cluster import MB
    from repro.obs import RecordingListener
    from repro.rdd import SparkerContext
    from repro.serde import SizedPayload
    from repro.cluster import ClusterConfig

    sc = SparkerContext(ClusterConfig.bic(num_nodes=2))
    recorder = RecordingListener()
    sc.event_bus.subscribe(recorder)
    monitor = NicMonitor(sc.cluster, sc.event_bus, interval=0.005)
    n = sc.cluster.total_cores
    data = [SizedPayload(np.ones(32), sim_bytes=32 * MB) for _ in range(n)]
    rdd = sc.parallelize(data, n).cache()
    rdd.count()
    zero = lambda: SizedPayload(np.zeros(32), sim_bytes=32 * MB)  # noqa: E731
    rdd.tree_aggregate(zero, lambda a, x: a.merge_inplace(x),
                       lambda a, b: a.merge(b))
    monitor.stop()
    assert monitor.samples > 0
    samples = recorder.of_kind("nic_sample")
    assert any(s.in_rate > 0 or s.out_rate > 0 for s in samples)
    # the final gather funnels every branch into the driver's ingress
    driver_in = max(s.in_utilization for s in samples if s.is_driver)
    assert driver_in == pytest.approx(1.0, abs=1e-6)


def test_nic_monitor_interval_validation():
    sc, _ = run_lr(trace=False, num_iterations=1)
    with pytest.raises(ValueError):
        NicMonitor(sc.cluster, sc.event_bus, interval=0.0)
