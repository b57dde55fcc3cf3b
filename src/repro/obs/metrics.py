"""One labeled, windowed instrument store and its bus listener.

Complements the event log with aggregate instruments, Spark's
``metrics.properties`` sinks in miniature, answering *how much, when,
and where*:

* :class:`MetricsStore` — labeled counters and histograms whose
  observations land in fixed-width virtual-time windows
  (``bucket = floor(time / window)``). A whole-run figure is the query
  with no labels: ``store.total("ring.bytes")`` sums every series of that
  name, ``store.total("ring.bytes", channel="ring")`` only those whose
  labels include ``channel="ring"`` (queries match by label *subset*),
* :class:`MetricCounter` (per-window sums) and :class:`Histogram`
  (per-window sample lists, sorted at query time; :func:`quantile` is the
  one exact nearest-rank quantile),
* :class:`MetricsListener` — feeds a store from the bus or from a
  replayed log.

All instruments are bookkeeping only, so attaching metrics never changes
simulated timings.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .events import TraceEvent

__all__ = ["LabelSet", "quantile", "MetricCounter", "Histogram",
           "MetricsStore", "MetricsListener"]

#: canonical label form: sorted (key, value-as-str) pairs
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Mapping[str, Any]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def quantile(ordered: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile of sorted samples; 0.0 when empty.

    The ``q``-quantile is the smallest sample with at least ``q * n``
    samples at or below it: rank ``ceil(q * n) - 1``, so ``q=0`` is the
    minimum and ``q=1`` the maximum.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not ordered:
        return 0.0
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


class _Instrument:
    """One labeled series: name, labels and the shared bucket width."""

    __slots__ = ("name", "labels", "window", "buckets")

    def __init__(self, name: str, labels: LabelSet, window: float):
        self.name = name
        self.labels = labels
        self.window = window
        self.buckets: Dict[int, Any] = {}

    def bucket(self, time: float) -> int:
        return int(math.floor(time / self.window))

    def _matches(self, subset: LabelSet) -> bool:
        mine = dict(self.labels)
        return all(mine.get(k) == v for k, v in subset)


class MetricCounter(_Instrument):
    """Per-window monotone sums."""

    __slots__ = ()

    def inc(self, time: float, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        bucket = self.bucket(time)
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + amount

    @property
    def total(self) -> float:
        return sum(self.buckets.values())


class Histogram(_Instrument):
    """Per-window sample lists; observing is an append."""

    __slots__ = ()

    def observe(self, time: float, value: float) -> None:
        self.buckets.setdefault(self.bucket(time), []).append(value)

    def samples(self, t0: Optional[float] = None,
                t1: Optional[float] = None) -> List[float]:
        """All samples whose window overlaps ``[t0, t1]`` (None = open)."""
        out: List[float] = []
        for bucket, values in self.buckets.items():
            start = bucket * self.window
            if t0 is not None and start + self.window <= t0:
                continue
            if t1 is not None and start > t1:
                continue
            out.extend(values)
        return out


def _value_order(value: str) -> Tuple[int, float, str]:
    """Numeric label values in numeric order, then the rest by text."""
    try:
        return (0, float(value), value)
    except ValueError:
        return (1, 0.0, value)


class MetricsStore:
    """Labeled windowed instruments plus the query surface over them.

    ``window`` is the bucket width in virtual seconds; every instrument
    created by this store shares it, so buckets from different series
    line up and merge cleanly.
    """

    _KINDS = {"counter": MetricCounter, "histogram": Histogram}

    def __init__(self, window: float = 0.01):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._series: Dict[str, Dict[Tuple[str, LabelSet], Any]] = {
            kind: {} for kind in self._KINDS}

    # ------------------------------------------------------------ create
    def _get(self, kind: str, name: str, labels: Mapping[str, Any]):
        key = (name, _labelset(labels))
        series = self._series[kind]
        inst = series.get(key)
        if inst is None:
            inst = series[key] = self._KINDS[kind](name, key[1],
                                                   self.window)
        return inst

    def counter(self, name: str, **labels: Any) -> MetricCounter:
        return self._get("counter", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    # ------------------------------------------------------------- query
    def _find(self, kind: str, name: str, labels: Mapping[str, Any]):
        subset = _labelset(labels)
        return [inst for (n, _ls), inst in sorted(self._series[kind].items())
                if n == name and inst._matches(subset)]

    def counters(self, name: str, **labels: Any) -> List[MetricCounter]:
        """Every counter series of ``name`` whose labels ⊇ ``labels``."""
        return self._find("counter", name, labels)

    def histograms(self, name: str, **labels: Any) -> List[Histogram]:
        return self._find("histogram", name, labels)

    def total(self, name: str, **labels: Any) -> float:
        """Summed counter total across matching series."""
        return sum(inst.total for inst in self.counters(name, **labels))

    def samples(self, name: str, t0: Optional[float] = None,
                t1: Optional[float] = None, **labels: Any) -> List[float]:
        """Merged histogram samples of matching series, sorted."""
        out: List[float] = []
        for inst in self.histograms(name, **labels):
            out.extend(inst.samples(t0, t1))
        out.sort()
        return out

    def names(self) -> List[Tuple[str, str]]:
        """Every ``(kind, name)`` with at least one series, sorted."""
        return sorted({(kind, n) for kind, series in self._series.items()
                       for n, _ls in series})

    # ----------------------------------------------------------- summary
    def summary(self, by: Optional[Mapping[str, str]] = None) -> str:
        """A plain-text dump: one line per counter or histogram name with
        its series merged. ``by`` maps a name
        to a label; each value of that label gets its own indented line.
        """
        by = by or {}
        lines: List[str] = []
        for kind, name in self.names():
            series = self._find(kind, name, {})
            lines.append(f"{kind:<9} {name}: "
                         + self._figures(kind, name, {})
                         + f" series={len(series)}")
            key = by.get(name)
            if key is None:
                continue
            values = {dict(inst.labels).get(key) for inst in series}
            for value in sorted(values - {None}, key=_value_order):
                lines.append(f"  {key}={value}: "
                             + self._figures(kind, name, {key: value}))
        return "\n".join(lines)

    def _figures(self, kind: str, name: str,
                 labels: Mapping[str, Any]) -> str:
        if kind == "counter":
            windows = {b for inst in self.counters(name, **labels)
                       for b in inst.buckets}
            return (f"total={self.total(name, **labels):g} "
                    f"windows={len(windows)}")
        ordered = self.samples(name, **labels)
        mean = sum(ordered) / len(ordered) if ordered else 0.0
        return (f"n={len(ordered)} mean={mean:.6g} "
                f"p50={quantile(ordered, 0.5):.6g} "
                f"p95={quantile(ordered, 0.95):.6g} "
                f"p99={quantile(ordered, 0.99):.6g} "
                f"max={quantile(ordered, 1.0):.6g}")

    def __repr__(self) -> str:
        return (f"<MetricsStore window={self.window:g}s "
                + " ".join(f"{kind}s={len(series)}"
                           for kind, series in self._series.items()) + ">")


class MetricsListener:
    """Feeds a :class:`MetricsStore` from bus (or replayed) events.

    Maintains the distributions the paper's diagnosis leans on: message
    sizes (Figure 13's regime), task durations per stage (skew /
    stragglers), and shuffle and result byte counters. Carries
    a ``stage_id -> job_id`` map built from ``stage_submitted`` events so
    per-task series get a ``job`` label even though
    :class:`~repro.obs.events.TaskEnd` does not name its job.
    """

    #: the per-label lines :meth:`MetricsStore.summary` prints for the
    #: store this listener fills
    SUMMARY_BY = {"tasks.finished": "status",
                  "tasks.duration_seconds": "stage",
                  "jobs.finished": "succeeded"}

    def __init__(self, store: Optional[MetricsStore] = None,
                 window: float = 0.01):
        self.store = store if store is not None \
            else MetricsStore(window=window)
        self._stage_job: Dict[int, int] = {}

    def replay(self, events: Iterable[TraceEvent]) -> "MetricsListener":
        """Feed a recorded log through the same mapping."""
        for event in events:
            self.on_event(event)
        return self

    def summary(self) -> str:
        return self.store.summary(by=self.SUMMARY_BY)

    def on_event(self, event: TraceEvent) -> None:
        store = self.store
        kind = event.kind
        t = event.time
        store.counter("events.total").inc(t)
        if kind == "stage_submitted":
            self._stage_job[event.stage_id] = event.job_id
        elif kind == "task_end":
            job = self._stage_job.get(event.stage_id, -1)
            store.counter("tasks.finished", status=event.status,
                          job=job).inc(t)
            store.histogram("tasks.duration_seconds", job=job,
                            stage=event.stage_id,
                            executor=event.executor_id).observe(
                                t, event.duration)
            store.counter("tasks.result_bytes", job=job,
                          executor=event.executor_id).inc(
                              t, event.metrics.result_bytes)
        elif kind == "stage_completed":
            store.counter("stages.completed").inc(t)
        elif kind == "job_start":
            store.counter("jobs.started", kind=event.job_kind).inc(t)
        elif kind == "job_end":
            store.counter("jobs.finished", kind=event.job_kind,
                          succeeded=event.succeeded).inc(t)
        elif kind == "message_sent":
            store.counter("messages.bytes",
                          transport=event.transport).inc(t, event.nbytes)
            store.histogram("messages.size_bytes",
                            transport=event.transport).observe(
                                t, event.nbytes)
        elif kind == "message_delivered":
            store.histogram("messages.queue_wait_seconds",
                            transport=event.transport).observe(
                                t, event.queue_wait)
        elif kind == "ring_hop":
            store.counter("ring.bytes", channel=event.channel,
                          executor=event.executor_id).inc(
                              t, event.send_bytes)
            store.histogram("ring.hop_seconds",
                            channel=event.channel).observe(
                                t, event.time - event.began)
        elif kind == "imm_merge":
            store.histogram("imm.merge_seconds",
                            executor=event.executor_id).observe(
                                t, event.merge_time)
            store.histogram("imm.lock_wait_seconds",
                            executor=event.executor_id).observe(
                                t, event.lock_wait)
        elif kind == "block":
            store.counter(f"blocks.{event.op}").inc(t)
            store.counter(f"blocks.{event.op}_bytes").inc(t, event.nbytes)
        elif kind == "columnar_fold":
            store.counter("ml.columnar.folds").inc(t)
            if event.built:
                store.counter("ml.columnar.builds").inc(t)
        elif kind == "collective_completed":
            store.histogram("collective.seconds",
                            algorithm=event.algorithm,
                            collective=event.collective_id).observe(
                                t, event.seconds)
        elif kind == "fault_injected":
            store.counter("faults.injected", fault=event.fault).inc(t)
        elif kind == "recovery_action":
            store.counter("recovery.actions", action=event.action).inc(t)
            if event.action == "recovered":
                store.histogram("recovery.seconds",
                                site=event.site).observe(t, event.seconds)
