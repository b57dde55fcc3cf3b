"""The service's recorded stream, byte for byte.

How the reactor hands the baton between job threads may change; what a
traced multi-tenant session *records* may not: same events, same
fields, same values, same order. The fixed open-loop session of
``conftest.py`` is serialized and hashed. Floats are printed by
``repr``, so the digest is only comparable on the host fingerprint it
was taken on (the rule ``tests/obs/test_stream_digest.py`` uses);
elsewhere the test skips and says so.

The digest was taken on the reactor in which only the owner thread
stepped the kernel and every job ran on a thread of its own. It was
re-pinned at event-log schema version 4, which drops ``source`` and
``predicted`` from ``collective_chosen`` and ``predicted`` from
``collective_completed``: checked record against record, the same 1134
events in the same order with every other key and value equal.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from repro.obs import RecordingListener

from .conftest import open_loop_session

PARENT_DIGEST = (
    "33066c7e2cc02b4645f7ed78a41494a5d7649840fce55786934067710492ab65")
PARENT_EVENTS = 1134
FINGERPRINT = {"python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64"}


def test_service_stream_is_the_parents_byte_for_byte():
    here = {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}
    if here != FINGERPRINT:
        pytest.skip(f"digest was taken on {FINGERPRINT}, this is {here}")
    recorder = RecordingListener()
    traffic, _cooperator = open_loop_session(listener=recorder)
    events = recorder.events
    assert len(traffic.submissions) == 16
    assert all(handle is not None and handle.status() == "succeeded"
               for _arrival, handle in traffic.submissions)
    kinds = {e.kind for e in events}
    assert {"service_job_submitted", "service_job_finished", "job_start",
            "task_end", "imm_merge", "ring_hop",
            "collective_chosen"} <= kinds
    assert any(e.kind == "service_job_submitted" and e.queued
               for e in events)
    blob = "\n".join(json.dumps(e.to_record(), sort_keys=True)
                     for e in events)
    assert len(events) == PARENT_EVENTS
    assert hashlib.sha256(blob.encode()).hexdigest() == PARENT_DIGEST
