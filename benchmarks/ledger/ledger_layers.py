"""Measuring each layer from outside.

Everything here wraps public calls: correctness counting, the
benchmark's own spans, a recorder that hands out obs listeners, the
cProfile harness with its file -> layer classifier, and the reduction of
a recorded event stream to the virtual partition and the counts.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ledger_metrics import HOST_LAYERS

from repro.obs import (
    SEGMENT_LABELS,
    RecordingListener,
    attribute_critical_path,
)


# ------------------------------------------------------------------ checks
class Checks:
    """Attempted / failed correctness checks of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: pin checks skipped because the host fingerprint differs
        self.pins_skipped = 0
        self.failures: List[str] = []

    def check(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)
        return bool(ok)


# ------------------------------------------------------------------- spans
class Spans:
    """The benchmark's own spans: name, start, end, parent.

    Recorded around every public call the harness makes and kept in
    memory. The traced pass writes them out at the end; the end-to-end
    passes keep only :meth:`top_level_seconds`, the segments of a pass
    (program-side tracing, ``repro.obs``, stays off there).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.rows: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.rows)
        self.rows.append({"id": index, "name": name,
                          "parent": self._stack[-1] if self._stack else -1,
                          "start": time.perf_counter(), "end": None})
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.rows[index]["end"] = time.perf_counter()

    def top_level_seconds(self) -> List[float]:
        """Duration of every span that has no parent, in start order."""
        return [row["end"] - row["start"] for row in self.rows
                if row["parent"] == -1]

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name: duration minus child spans."""
        child_time = [0.0] * len(self.rows)
        for row in self.rows:
            if row["parent"] >= 0 and row["end"] is not None:
                child_time[row["parent"]] += row["end"] - row["start"]
        out: Dict[str, float] = {}
        for row in self.rows:
            if row["end"] is None:
                continue
            own = row["end"] - row["start"] - child_time[row["id"]]
            key = row["name"].split(":")[0]
            out[key] = out.get(key, 0.0) + own
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": self.rows,
                       "self_seconds": self.self_seconds()}, out)


# ---------------------------------------------------------------- recorder
class Recorder:
    """Hands out one in-memory obs listener per context.

    Contexts number their jobs from zero, so streams of different
    contexts must not be mixed before the critical-path analysis.
    """

    def __init__(self) -> None:
        self.listeners: List[RecordingListener] = []

    def listener(self) -> RecordingListener:
        rec = RecordingListener()
        self.listeners.append(rec)
        return rec


def reduce_events(recorder: Recorder) -> Tuple[Dict[str, float],
                                               Dict[str, float], float]:
    """``(critical-path seconds per label, counts, sum of makespans)``."""
    cp = {label: 0.0 for label in SEGMENT_LABELS}
    counts = {"tasks": 0, "messages": 0, "wire_bytes": 0.0, "ring_hops": 0,
              "imm_merges": 0, "obs_events": 0, "recovery_actions": 0,
              "speculative_attempts": 0, "collective_downgrades": 0}
    kinds = {"task_end": "tasks", "message_sent": "messages",
             "ring_hop": "ring_hops", "imm_merge": "imm_merges",
             "recovery_action": "recovery_actions",
             "speculative_attempt": "speculative_attempts",
             "collective_downgraded": "collective_downgrades"}
    makespans = 0.0
    for rec in recorder.listeners:
        counts["obs_events"] += len(rec.events)
        for event in rec.events:
            key = kinds.get(event.kind)
            if key is not None:
                counts[key] += 1
                if key == "messages":
                    counts["wire_bytes"] += event.nbytes
        report = attribute_critical_path(rec.events)
        for label, seconds in report.totals().items():
            cp[label] += seconds
        makespans += sum(job.makespan for job in report.jobs)
    return cp, counts, makespans


# -------------------------------------------------------------- classifier
#: first match wins; needles are substrings of the defining file's path
#: with ``/`` separators. Every file under ``src/repro/`` must match one
#: (test_ledger.py walks the tree).
_RULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("cluster_flows", ("/repro/cluster/flows.py",)),
    ("cluster_network", ("/repro/cluster/",)),
    ("sim", ("/repro/sim/",)),
    ("comm_fabric", ("/repro/comm/fabric.py", "/repro/comm/transport.py")),
    ("comm_collectives", ("/repro/comm/",)),
    ("core_imm", ("/repro/core/imm.py",)),
    ("core_sai", ("/repro/core/",)),
    ("rdd_hostpool", ("/repro/rdd/hostpool.py",)),
    ("rdd", ("/repro/rdd/",)),
    ("serde", ("/repro/serde/",)),
    ("ml", ("/repro/ml/",)),
    ("data", ("/repro/data/",)),
    ("faults", ("/repro/faults/",)),
    ("service", ("/repro/service/",)),
    ("obs", ("/repro/obs/",)),
    # the 4-way breakdown recorder SparkerSession.run carries (the only
    # part of the old bench package the ledger ever executes), and the
    # package root: neither is a layer of its own
    ("other", ("/bench/", "/repro/__init__.py")),
)


def classify(filename: str) -> Optional[str]:
    """Layer of a function defined in ``filename``.

    None only for a file under ``repro/`` that no rule names — a new
    package the ledger has not been told about.
    """
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        for layer, needles in _RULES:
            if any(needle in path for needle in needles):
                return layer
        return None
    if path == "~" or "/numpy/" in path:
        return "numpy_builtin"
    return "other"


# ---------------------------------------------------------------- profiler
#: a thread parked on the service baton (or any lock) burns no host CPU;
#: cProfile's wall timer would count the wait once per parked thread
_IDLE = ("<method 'acquire' of '_thread.lock' objects>",
         "<method 'wait' of '_thread.lock' objects>")


def profile_call(fn: Callable[[], Any]) -> Tuple[Any, Dict[str, float],
                                                List[Tuple[str, float]]]:
    """Run ``fn`` under cProfile on this thread and every thread it starts.

    Returns ``(result, self seconds per layer, top functions)``. The
    layer seconds plus ``total`` form an exact partition: ``total`` is
    their sum, lock waits excluded. A ``repro/`` file no rule names is
    booked under ``other`` and listed under the ``unclassified`` key of
    the top functions, so a later package cannot break a run.
    """
    thread_profiles: List[cProfile.Profile] = []

    def on_thread_start(_frame, _event, _arg):
        # runs once, as the new thread's first profile event; enable()
        # replaces this hook with the C profiler for that thread
        prof = cProfile.Profile()
        thread_profiles.append(prof)
        prof.enable()

    main = cProfile.Profile()
    threading.setprofile(on_thread_start)
    main.enable()
    try:
        result = fn()
    finally:
        main.disable()
        threading.setprofile(None)

    layers = {layer: 0.0 for layer in HOST_LAYERS}
    functions: Dict[str, float] = {}
    unknown: List[str] = []
    for prof in [main] + thread_profiles:
        for (filename, _line, func), entry in pstats.Stats(prof).stats.items():
            self_time = entry[2]
            if self_time <= 0.0 or (filename == "~" and func in _IDLE):
                continue
            layer = classify(filename)
            if layer is None:
                unknown.append(filename)
                layer = "other"
            layers[layer] += self_time
            key = f"{layer}  {filename.rsplit('/', 1)[-1]}:{func}"
            functions[key] = functions.get(key, 0.0) + self_time
    layers["total"] = sum(layers.values())
    top = sorted(functions.items(), key=lambda kv: kv[1], reverse=True)[:12]
    top += [(f"unclassified  {name}", 0.0) for name in sorted(set(unknown))]
    return result, layers, top
