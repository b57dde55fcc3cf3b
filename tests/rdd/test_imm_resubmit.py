"""An IMM stage with more tasks than slots resubmits after a task failure.

A reduced-result stage that loses a task interrupts its siblings, clears
its shared objects and runs again (paper §3.2). With 16 partitions on
``laptop(1)``'s 4 slots most siblings are still queued for a slot when
they are interrupted; each must give its place back, or the resubmitted
stage waits forever for slots held by nobody.
"""

import pytest

from repro.cluster import ClusterConfig
from repro.rdd import JobFailed, SparkerContext
from repro.rdd.scheduler import MAX_STAGE_ATTEMPTS

PARTITIONS = 16


def _stage(failures):
    """A context and a summing stage whose partition 1 raises on its
    first ``failures`` runs (``runs`` counts them)."""
    sc = SparkerContext(ClusterConfig.laptop(1))
    runs = []

    def func(partition, data, _ctx):
        if partition == 1:
            runs.append(sc.now)
            if len(runs) <= failures:
                raise ValueError("partition 1 fails")
        return sum(data)

    return sc, sc.parallelize(range(PARTITIONS * 8), PARTITIONS), func, runs


def _merged(sc, rdd, func):
    """Every holder with the value merged into it."""
    holders = sc.run_reduced_job(rdd, func, lambda a, b: a + b)
    return [(eid, oid, sc.executor_by_id(eid).object_manager.get(oid))
            for eid, oid in holders]


def _idle(sc):
    arbiter = sc.task_arbiter
    return (arbiter.queued() == 0
            and all(arbiter.slots[e.executor_id].held == 0
                    for e in sc.executors))


def test_a_transient_failure_returns_the_fault_free_holders_and_values():
    clean = _merged(*_stage(failures=0)[:3])
    sc, rdd, func, runs = _stage(failures=1)
    assert _merged(sc, rdd, func) == clean
    assert len(runs) == 2
    assert sum(value for _e, _o, value in clean) == sum(range(PARTITIONS * 8))
    assert _idle(sc)


def test_a_permanent_failure_raises_job_failed_after_every_attempt():
    sc, rdd, func, runs = _stage(failures=MAX_STAGE_ATTEMPTS)
    with pytest.raises(JobFailed, match=f"failed {MAX_STAGE_ATTEMPTS} times"):
        _merged(sc, rdd, func)
    assert len(runs) == MAX_STAGE_ATTEMPTS
    assert _idle(sc)
