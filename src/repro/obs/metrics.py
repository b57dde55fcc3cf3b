"""Metrics registry: counters, gauges, histograms, and the NIC monitor.

Complements the event log with aggregate instruments, Spark's
``metrics.properties`` sinks in miniature:

* :class:`MetricsRegistry` — a flat namespace of named instruments,
* :class:`MetricsListener` — a bus listener feeding the registry from
  trace events (message-size and task-skew histograms, byte counters),
* :class:`NicMonitor` — a simulated monitor process sampling every node's
  NIC utilization from the flow network at a fixed virtual-time cadence,
  emitting :class:`~repro.obs.events.NicSample` events and gauges.

All instruments are bookkeeping only; sampling reads flow state without
touching it, so attaching metrics never changes simulated timings.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Dict, List, Optional

from .bus import EventBus
from .events import NicSample, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.placement import Cluster

__all__ = ["MetricCounter", "Gauge", "Histogram", "MetricsRegistry",
           "MetricsListener", "NicMonitor"]


class MetricCounter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"<MetricCounter {self.name}={self.value:g}>"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value", "updated_at")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.updated_at: Optional[float] = None

    def set(self, value: float, at: Optional[float] = None) -> None:
        self.value = value
        self.updated_at = at

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram:
    """A streaming distribution with exact quantiles.

    Samples are kept sorted (insertion via ``bisect``), which is fine at
    this engine's event volumes and keeps quantiles exact rather than
    approximate — determinism matters more than memory here.
    """

    __slots__ = ("name", "_sorted", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self._sorted: List[float] = []
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        insort(self._sorted, value)
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._sorted[0] if self._sorted else 0.0

    @property
    def max(self) -> float:
        return self._sorted[-1] if self._sorted else 0.0

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile; 0.0 on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._sorted:
            return 0.0
        rank = min(int(q * len(self._sorted)), len(self._sorted) - 1)
        return self._sorted[rank]

    def __repr__(self) -> str:
        return (f"<Histogram {self.name} n={self.count} "
                f"mean={self.mean:.4g} p50={self.quantile(0.5):.4g} "
                f"max={self.max:.4g}>")


class MetricsRegistry:
    """A flat namespace of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, MetricCounter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> MetricCounter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = MetricCounter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name)
        return inst

    @property
    def counters(self) -> Dict[str, MetricCounter]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def summary(self) -> str:
        """A plain-text dump of every instrument, sorted by name."""
        lines: List[str] = []
        for name in sorted(self._counters):
            lines.append(f"counter   {name} = {self._counters[name].value:g}")
        for name in sorted(self._gauges):
            gauge = self._gauges[name]
            stamp = ("" if gauge.updated_at is None
                     else f" @ {gauge.updated_at:.6g}s")
            lines.append(f"gauge     {name} = {gauge.value:g}{stamp}")
        for name in sorted(self._histograms):
            h = self._histograms[name]
            lines.append(
                f"histogram {name}: n={h.count} mean={h.mean:.6g} "
                f"p50={h.quantile(0.5):.6g} p95={h.quantile(0.95):.6g} "
                f"max={h.max:.6g}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)}>")


class MetricsListener:
    """Feeds a :class:`MetricsRegistry` from bus events.

    Maintains the distributions the paper's diagnosis leans on: message
    sizes (Figure 13's regime), task durations per stage kind (skew /
    stragglers), shuffle and result byte counters, and per-node NIC
    utilization gauges refreshed by :class:`NicMonitor` samples.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()

    def on_event(self, event: TraceEvent) -> None:
        reg = self.registry
        reg.counter("events.total").inc()
        kind = event.kind
        if kind == "task_end":
            reg.counter(f"tasks.{event.status}").inc()
            reg.histogram("tasks.duration_seconds").observe(event.duration)
            reg.histogram(
                f"tasks.duration_seconds.stage{event.stage_id}").observe(
                    event.duration)
            reg.counter("tasks.result_bytes").inc(
                event.metrics.result_bytes)
        elif kind == "message_sent":
            reg.counter("messages.sent").inc()
            reg.counter("messages.bytes").inc(event.nbytes)
            reg.histogram("messages.size_bytes").observe(event.nbytes)
        elif kind == "message_delivered":
            reg.counter("messages.delivered").inc()
            reg.histogram("messages.queue_wait_seconds").observe(
                event.queue_wait)
        elif kind == "ring_hop":
            reg.counter("ring.hops").inc()
            reg.counter("ring.bytes").inc(event.send_bytes)
        elif kind == "imm_merge":
            reg.counter("imm.merges").inc()
            reg.histogram("imm.lock_wait_seconds").observe(event.lock_wait)
        elif kind == "block":
            reg.counter(f"blocks.{event.op}").inc()
            reg.counter(f"blocks.{event.op}_bytes").inc(event.nbytes)
        elif kind == "columnar_fold":
            reg.counter("ml.columnar.folds").inc()
            if event.built:
                reg.counter("ml.columnar.builds").inc()
        elif kind == "nic_sample":
            prefix = "driver" if event.is_driver else event.hostname
            reg.gauge(f"nic.{prefix}.in_utilization").set(
                event.in_utilization, at=event.time)
            reg.gauge(f"nic.{prefix}.out_utilization").set(
                event.out_utilization, at=event.time)
        elif kind == "stage_completed":
            reg.counter("stages.completed").inc()
        elif kind == "job_end":
            reg.counter("jobs.completed" if event.succeeded
                        else "jobs.failed").inc()


class NicMonitor:
    """A simulated monitor process sampling NIC utilization.

    Every ``interval`` virtual seconds it reads each node's aggregate NIC
    ingress/egress rate from the flow network and emits one
    :class:`NicSample` per node (driver included). Sampling is read-only
    — it observes flow allocations without perturbing them — so a run
    with a monitor attached reaches identical virtual times.

    The monitor process lives until ``stop()``; pending sample timeouts
    after the workload finishes are harmless (the context only ever runs
    the simulation up to its own job processes).
    """

    def __init__(self, cluster: "Cluster", bus: EventBus,
                 interval: float = 0.05):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.cluster = cluster
        self.bus = bus
        self.interval = interval
        self.samples = 0
        self._stopped = False
        self._proc = cluster.env.process(self._body(), name="nic-monitor")

    def _nodes(self):
        nodes = list(self.cluster.nodes)
        driver = self.cluster.driver_node
        if all(node is not driver for node in nodes):
            nodes.append(driver)
        return nodes

    def _body(self):
        env = self.cluster.env
        flows = self.cluster.network.flows
        driver = self.cluster.driver_node
        while not self._stopped:
            if self.bus.active:
                for node in self._nodes():
                    in_rate = flows.link_rate(node.nic_in)
                    out_rate = flows.link_rate(node.nic_out)
                    self.bus.emit(NicSample.fast(
                        time=env.now, node_id=node.node_id,
                        hostname=node.hostname,
                        is_driver=node is driver,
                        in_rate=in_rate, out_rate=out_rate,
                        in_utilization=in_rate / node.nic_in.capacity,
                        out_utilization=out_rate / node.nic_out.capacity,
                        span_id=self.bus.tracer.new_span()))
                    self.samples += 1
            yield env.timeout(self.interval)

    def stop(self) -> None:
        """Stop sampling after the current interval elapses."""
        self._stopped = True

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else "running"
        return f"<NicMonitor {state} samples={self.samples}>"
