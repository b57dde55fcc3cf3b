"""SparkerSession tests: run/submit parity, spec policy."""

import gc
import threading
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core.spec import AggregationSpec
from repro.service import JobCancelled, PoolConfig, SparkerSession
from repro.service import session as session_mod
from repro.service.session import service_spec


CFG = ClusterConfig.laptop(num_nodes=2)


def test_concurrent_submissions_match_isolated_runs():
    with SparkerSession(CFG) as session:
        handles = {
            name: session.submit(name, tenant=name, iterations=2,
                                 partitions=4)
            for name in ("LR-A", "SVM-A")
        }
        session.server.drain()
        for name, handle in handles.items():
            isolated = SparkerSession(CFG).run(name, iterations=2,
                                               partitions=4)
            assert np.array_equal(handle.result().final_weights,
                                  isolated.final_weights), name


def test_split_submission_matches_isolated_run():
    spec = AggregationSpec(parallelism=2)
    with SparkerSession(CFG) as session:
        handle = session.submit("LR-A", spec, aggregation="split",
                                iterations=2, partitions=4)
        isolated = SparkerSession(CFG).run("LR-A", spec=spec,
                                           aggregation="split",
                                           iterations=2, partitions=4)
        assert np.array_equal(handle.result().final_weights,
                              isolated.final_weights)


def test_service_spec_rejects_topk_compression():
    with pytest.raises(ValueError, match="error-feedback"):
        service_spec(AggregationSpec(compression="topk"))


def test_service_spec_rejects_recovery_policy():
    from repro.faults.plan import RecoveryPolicy
    with pytest.raises(ValueError, match="recovery"):
        service_spec(AggregationSpec(recovery=RecoveryPolicy()))


def test_service_spec_downgrades_pipelined_ring_warning_once():
    session_mod._warned_downgrades.discard("pipelined_ring")
    with pytest.warns(RuntimeWarning, match="pipelined_ring"):
        adapted = service_spec(AggregationSpec(collective="pipelined_ring"))
    assert adapted.collective == "ring"
    # second downgrade is silent (warn-once)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = service_spec(AggregationSpec(collective="pipelined_ring"))
    assert again.collective == "ring"


def test_run_builds_its_context_from_the_session_arguments():
    # a driver on node 0 talks to its executors locally: a shorter run
    default = SparkerSession(CFG).run("LR-A", "split", iterations=2)
    colocated = SparkerSession(CFG, driver_colocated=True).run(
        "LR-A", "split", iterations=2)
    assert round(default.end_to_end, 5) == 18.94241
    assert round(colocated.end_to_end, 5) == 18.93985


def test_a_bare_parallelism_is_not_a_spec():
    with pytest.raises(TypeError, match=r"AggregationSpec\(parallelism="):
        SparkerSession(CFG).run("LR-A", iterations=1, partitions=4, spec=2)
    with SparkerSession(CFG) as session, pytest.raises(TypeError):
        session.submit("LR-A", 2, iterations=1, partitions=4)


def test_handle_lifecycle_and_cancelled_queued_raises():
    pools = {"narrow": PoolConfig(max_running=1)}
    with SparkerSession(CFG, pools=pools) as session:
        first = session.submit("LR-A", pool="narrow", iterations=1,
                               partitions=4)
        second = session.submit("LR-A", pool="narrow", iterations=1,
                                partitions=4)
        assert not second.done()
        assert second.cancel("changed my mind")
        result = first.result()
        assert first.done() and first.status() == "succeeded"
        assert first.latency is not None and first.latency > 0
        assert result.final_weights is not None
        with pytest.raises(JobCancelled):
            second.result()


def test_session_repr_and_lazy_server():
    session = SparkerSession(CFG)
    assert "service not started" in repr(session)
    session.close()  # closing a never-started service is a no-op
    with SparkerSession(CFG) as live:
        live.submit("LR-A", iterations=1, partitions=4)
        live.server.drain()
        assert "service not started" not in repr(live)


# ------------------------------------------------------------- lifetime
@pytest.fixture
def no_collector():
    """A closed context gives its memory back by reference count alone:
    with the cyclic collector off, anything freed here was freed by
    ``stop()`` / ``close()``, not by a collection that happened to run."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_run_stops_its_context_and_frees_the_cached_columns(no_collector):
    contexts, columns = [], {}
    real = session_mod.SparkerContext

    def spy(*args, **kwargs):
        contexts.append(real(*args, **kwargs))
        return contexts[-1]

    def listener(_event):  # mid-run: the blocks are cached and laid out
        for executor in contexts[0].executors:
            for block in executor.memory_store._blocks.values():
                derived = block.data.derived
                if derived is not None:
                    columns[id(derived)] = weakref.ref(derived)

    with mock.patch.object(session_mod, "SparkerContext", spy):
        SparkerSession(CFG).run("LR-A", iterations=2, partitions=4,
                                listener=listener)
    sc, = contexts  # still held here: stop() freed the blocks, not its death
    assert len(columns) == 4 and len(sc.event_bus) == 0
    assert all(ref() is None for ref in columns.values())
    with pytest.raises(RuntimeError, match="context is stopped"):
        sc.parallelize([1], 1)
    sc.stop()  # twice is still a no-op


def test_a_closed_service_is_freed_and_its_results_survive(no_collector):
    session = SparkerSession(CFG, pools={"narrow": PoolConfig(max_running=1)})
    handle, queued = (session.submit("LR-A", pool="narrow", iterations=2,
                                     partitions=4) for _ in range(2))
    assert queued.cancel("withdrawn before it started")
    weights = handle.result().final_weights.copy()
    server = weakref.ref(session.server)
    session.close()
    session.close()
    assert np.array_equal(handle.result().final_weights, weights)
    del session, handle, queued
    assert server() is None


def test_a_closed_session_leaves_no_job_thread_alive():
    before = set(threading.enumerate())
    with SparkerSession(CFG, pools={"a": PoolConfig(weight=2.0),
                                    "b": PoolConfig(weight=1.0)}) as session:
        handles = [session.submit(name, pool=pool, iterations=1,
                                  partitions=4)
                   for name, pool in (("LR-A", "a"), ("SVM-A", "b"),
                                      ("LR-A", "b"))]
        session.server.drain()
        assert all(handle.status() == "succeeded" for handle in handles)
        started = [thread for thread in threading.enumerate()
                   if thread not in before
                   and thread.name.startswith("sparker-job")]
        assert started
    assert not [thread for thread in started if thread.is_alive()]
