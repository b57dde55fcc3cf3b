"""JSON-lines event-log export and import.

The event log is the durable record of a run: one JSON object per
event, preceded by a schema header record. It is what the paper's
authors mined (Spark writes the same shape to its history
server), extended below stage granularity.

Schema versioning: the header carries ``{"schema": SCHEMA_NAME,
"version": SCHEMA_VERSION}``; :func:`load_events` rejects logs written by
a newer major schema rather than misreading them. Unknown *event kinds*
in a known schema are skipped with a warning counter, so old readers
survive new emitters. Version history: 1 = the original vocabulary,
2 = optional ``span_id``/``parent_span_id`` causal-tracing fields
(additive — version-1 readers that ignore unknown fields still work),
3 = one ``message_*`` / ``ring_hop`` / ``chunk_stream`` per PDR hop, with
``lanes`` (absent: 1) and bytes summed over them, not one per channel,
4 = no per-candidate cost-estimate records, and ``collective_chosen`` /
``collective_completed`` without ``source`` and ``predicted`` (older logs
still load: the unknown kind is skipped and the extra keys ignored).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, List, Optional, Union

from .bus import EventBus
from .events import TraceEvent, event_from_record

__all__ = ["SCHEMA_NAME", "SCHEMA_VERSION", "EventLogWriter",
           "load_events"]

SCHEMA_NAME = "sparker.events"
SCHEMA_VERSION = 4

#: shared encoder — json.dumps(..., sort_keys=True) builds a fresh
#: JSONEncoder per call, which dominates streaming-write cost
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _header() -> str:
    return json.dumps({"schema": SCHEMA_NAME, "version": SCHEMA_VERSION})


class EventLogWriter:
    """A bus listener streaming every event to a JSON-lines file.

    Events are *buffered as objects* on the hot emit path and only
    serialized when ``buffer_events`` of them have accumulated (or on
    :meth:`flush`/:meth:`close`): one emission costs a list append, and
    JSON encoding is paid in batches with a single file write each —
    which is what keeps event-log overhead near the in-memory recorder's.
    The file therefore trails the simulation by up to one buffer; call
    :meth:`flush` for an up-to-date file mid-run. Events are frozen
    dataclasses, so late serialization sees exactly the emitted values.

    Usage (explicit)::

        writer = EventLogWriter("events.jsonl")
        sc.event_bus.subscribe(writer)
        ...
        sc.event_bus.unsubscribe(writer)
        writer.close()

    or scoped::

        with EventLogWriter("events.jsonl").attached_to(sc.event_bus):
            ...
    """

    def __init__(self, target: Union[str, Path], buffer_events: int = 8192):
        if buffer_events < 1:
            raise ValueError(
                f"buffer_events must be >= 1, got {buffer_events}")
        self.path = Path(target)
        self._handle: Optional[IO[str]] = self.path.open("w",
                                                         encoding="utf-8")
        self._handle.write(_header() + "\n")
        #: events accepted (buffered or flushed)
        self.written = 0
        self._buffer: List[TraceEvent] = []
        self._buffer_events = buffer_events
        self._bus: Optional[EventBus] = None

    def on_event(self, event: TraceEvent) -> None:
        if self._handle is None:
            raise RuntimeError(f"event log {self.path} is closed")
        self._buffer.append(event)
        self.written += 1
        if len(self._buffer) >= self._buffer_events:
            self.flush()

    def flush(self) -> None:
        """Serialize and write every buffered event (one file write)."""
        if self._handle is None or not self._buffer:
            return
        encode = _ENCODER.encode
        self._handle.write(
            "".join([encode(event.to_record()) + "\n"
                     for event in self._buffer]))
        self._buffer.clear()

    def close(self) -> None:
        """Flush and close the log file (idempotent)."""
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    # ----------------------------------------------------------- scoping
    def attached_to(self, bus: EventBus) -> "EventLogWriter":
        """Subscribe to ``bus`` and arm ``with``-scoped detach+close."""
        bus.subscribe(self)
        self._bus = bus
        return self

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *_exc) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(self)
            self._bus = None
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._handle is None else "open"
        return f"<EventLogWriter {str(self.path)!r} {state} n={self.written}>"


def load_events(source: Union[str, Path]) -> List[TraceEvent]:
    """Read a JSON-lines event log back into typed events.

    Accepts logs with or without the header line (Spark history files have
    none); rejects logs from a newer schema version. Lines that are not
    valid JSON — the torn tail of a log whose writer died mid-line — are
    skipped, so a truncated log still loads its complete prefix;
    well-formed records with *invalid fields* still raise (that is
    corruption, not truncation).
    """
    events: List[TraceEvent] = []
    for lineno, line in enumerate(
            Path(source).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(record, dict):
            continue
        if "schema" in record and "event" not in record:
            if record.get("schema") != SCHEMA_NAME:
                raise ValueError(
                    f"{source}: unknown schema {record.get('schema')!r}")
            if int(record.get("version", 0)) > SCHEMA_VERSION:
                raise ValueError(
                    f"{source}: schema version {record['version']} is newer "
                    f"than this reader ({SCHEMA_VERSION})")
            continue
        try:
            events.append(event_from_record(record))
        except ValueError:
            # Unknown event kind from a newer minor emitter: skip.
            continue
        except TypeError as exc:
            raise ValueError(
                f"{source}:{lineno}: malformed event record: {exc}") from None
    return events
