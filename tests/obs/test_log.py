"""Tests for the JSON-lines event log (writer, loader, schema)."""

import json

import pytest

from repro.obs import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    CollectiveChosen,
    CollectiveCompleted,
    EventBus,
    EventLogWriter,
    PhaseSpan,
    TaskMetrics,
    load_events,
)
from tests.obs.helpers import dump_events
from tests.obs.test_events import SAMPLES


def test_dump_load_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    assert dump_events(SAMPLES, path) == len(SAMPLES)
    loaded = load_events(path)
    assert loaded == list(SAMPLES)
    # metrics came back as a TaskMetrics, not a dict
    task = next(e for e in loaded if e.kind == "task_end")
    assert isinstance(task.metrics, TaskMetrics)


def test_header_written_first(tmp_path):
    path = tmp_path / "events.jsonl"
    dump_events(SAMPLES[:1], path)
    first = json.loads(path.read_text().splitlines()[0])
    assert first == {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}


def test_headerless_log_accepted(tmp_path):
    path = tmp_path / "spark-style.jsonl"
    path.write_text(
        json.dumps(PhaseSpan(time=1.0, key="x", seconds=0.5).to_record())
        + "\n")
    assert load_events(path) == [PhaseSpan(time=1.0, key="x", seconds=0.5)]


def test_newer_schema_rejected(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text(json.dumps(
        {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION + 1}) + "\n")
    with pytest.raises(ValueError, match="newer"):
        load_events(path)


def test_unknown_schema_rejected(tmp_path):
    path = tmp_path / "other.jsonl"
    path.write_text(json.dumps({"schema": "not.sparker", "version": 1}) + "\n")
    with pytest.raises(ValueError, match="unknown schema"):
        load_events(path)


def test_unknown_event_kinds_skipped(tmp_path):
    path = tmp_path / "mixed.jsonl"
    dump_events(SAMPLES[:2], path)
    with path.open("a") as handle:
        handle.write(json.dumps({"event": "from_the_future", "time": 9.0})
                     + "\n")
    assert load_events(path) == list(SAMPLES[:2])


def test_version_3_tuner_records_still_load(tmp_path):
    """A version-3 log's cost estimates are skipped and the collective
    records' ``source`` / ``predicted`` keys ignored."""
    path = tmp_path / "v3.jsonl"
    records = [
        {"schema": SCHEMA_NAME, "version": 3},
        {"event": "collective_cost", "time": 0.9, "collective_id": 1,
         "algorithm": "hd", "parallelism": 2, "predicted": 0.012,
         "chosen": True},
        {"event": "collective_chosen", "time": 0.9, "collective_id": 1,
         "algorithm": "hd", "parallelism": 2, "source": "auto",
         "ranks": 6, "hosts": 2, "value_bytes": 8e6,
         "segment_bytes": 8e6 / 12, "predicted": 0.012},
        {"event": "collective_completed", "time": 0.95,
         "collective_id": 1, "algorithm": "hd", "parallelism": 2,
         "began": 0.9, "seconds": 0.05, "predicted": 0.012},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert load_events(path) == [
        CollectiveChosen(time=0.9, collective_id=1, algorithm="hd",
                         parallelism=2, ranks=6, hosts=2, value_bytes=8e6,
                         segment_bytes=8e6 / 12),
        CollectiveCompleted(time=0.95, collective_id=1, algorithm="hd",
                            parallelism=2, began=0.9, seconds=0.05)]


def test_malformed_record_raises_with_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"event": "phase", "time": 1.0}) + "\n")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        load_events(path)


def test_writer_streams_and_detaches(tmp_path):
    path = tmp_path / "live.jsonl"
    bus = EventBus()
    with EventLogWriter(path).attached_to(bus) as writer:
        bus.emit(PhaseSpan(time=1.0, key="a", seconds=0.5))
        bus.emit(PhaseSpan(time=2.0, key="b", seconds=0.25))
        assert writer.written == 2
    # Detached on exit: further emissions are dropped, file is closed.
    assert not bus.active
    bus.emit(PhaseSpan(time=3.0, key="c", seconds=0.1))
    loaded = load_events(path)
    assert [e.key for e in loaded] == ["a", "b"]


def test_writer_rejects_use_after_close(tmp_path):
    writer = EventLogWriter(tmp_path / "x.jsonl")
    writer.close()
    writer.close()  # idempotent
    with pytest.raises(RuntimeError):
        writer.on_event(PhaseSpan(time=1.0, key="a", seconds=0.5))


# ----------------------------------------------------- degenerate logs
def test_empty_file_loads_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_events(path) == []


def test_header_only_log_loads_empty(tmp_path):
    path = tmp_path / "header.jsonl"
    dump_events([], path)
    assert load_events(path) == []


def test_truncated_tail_line_skipped(tmp_path):
    path = tmp_path / "torn.jsonl"
    dump_events(SAMPLES[:3], path)
    text = path.read_text()
    # tear the last record mid-line, as a crashing writer would
    path.write_text(text[:len(text) - len(text.splitlines()[-1]) // 2 - 1])
    assert load_events(path) == list(SAMPLES[:2])


def test_blank_and_non_dict_lines_skipped(tmp_path):
    path = tmp_path / "noise.jsonl"
    dump_events(SAMPLES[:1], path)
    with path.open("a") as handle:
        handle.write("\n\n[1, 2, 3]\n\"just a string\"\n")
    assert load_events(path) == list(SAMPLES[:1])


# ---------------------------------------------------- buffered writing
def test_writer_buffers_until_flush(tmp_path):
    path = tmp_path / "buffered.jsonl"
    writer = EventLogWriter(path, buffer_events=100)
    writer.on_event(PhaseSpan(time=1.0, key="a", seconds=0.5))
    writer.on_event(PhaseSpan(time=2.0, key="b", seconds=0.25))
    assert writer.written == 2
    writer._handle.flush()
    assert load_events(path) == []       # still only the header on disk
    writer.flush()
    writer._handle.flush()
    assert [e.key for e in load_events(path)] == ["a", "b"]
    writer.close()


def test_writer_auto_flushes_at_capacity(tmp_path):
    path = tmp_path / "capacity.jsonl"
    writer = EventLogWriter(path, buffer_events=3)
    for i in range(7):
        writer.on_event(PhaseSpan(time=float(i), key=f"k{i}", seconds=0.1))
    writer._handle.flush()
    assert len(load_events(path)) == 6   # two full batches, one buffered
    writer.close()
    assert len(load_events(path)) == 7


def test_sync_writer_writes_every_event(tmp_path):
    path = tmp_path / "sync.jsonl"
    writer = EventLogWriter(path, buffer_events=1)
    writer.on_event(PhaseSpan(time=1.0, key="a", seconds=0.5))
    writer._handle.flush()
    assert len(load_events(path)) == 1
    writer.close()


def test_writer_rejects_nonpositive_buffer(tmp_path):
    with pytest.raises(ValueError, match="buffer_events"):
        EventLogWriter(tmp_path / "x.jsonl", buffer_events=0)
