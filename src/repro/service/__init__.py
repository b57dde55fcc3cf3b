"""Multi-tenant Sparker job service (``repro.service``).

Runs many jobs concurrently on **one** simulated cluster, the way a
shared Spark deployment serves many applications from one driver:

* :mod:`repro.service.session` — :class:`SparkerSession`, the public
  entry point (``run`` for the classic one-shot path, ``submit`` for the
  async service path returning a :class:`JobHandle`),
* :mod:`repro.service.server` — the :class:`JobServer`: admission
  control, per-pool job quotas, the cross-job shared-dataset cache,
  cancellation, lifecycle events,
* :mod:`repro.service.reactor` — the :class:`Cooperator`, a strict
  baton-passing scheduler that multiplexes each job's (unchanged,
  synchronous) driver code over the single virtual clock with exactly
  one runnable thread at a time — engine state needs no locks and every
  run replays bit-identically,
* :class:`PoolConfig` — a tenant pool's weight and job quota; the
  server registers its pools on the context's own
  :class:`~repro.rdd.fair.FairTaskArbiter`, which shares executor task
  slots across them,
* :mod:`repro.service.traffic` — seeded open-loop (Poisson + bursty)
  multi-tenant traffic generation.

Quickstart::

    from repro.cluster import ClusterConfig
    from repro.service import PoolConfig, SparkerSession

    with SparkerSession(ClusterConfig.bic(),
                        pools={"prod": PoolConfig(weight=3.0),
                               "adhoc": PoolConfig(weight=1.0)}) as session:
        prod = session.submit("LR-C", pool="prod", tenant="alice")
        adhoc = session.submit("SVM-A", pool="adhoc", tenant="bob")
        print(prod.result().end_to_end, adhoc.result().end_to_end)

Every job's trained weights are byte-identical to the same job run alone
on a fresh context (ordered deferred-merge IMM folding — DESIGN.md §16),
so multi-tenancy changes *when* things happen, never *what* is computed.
"""

from ..rdd.context import JobCancelled
from ..rdd.fair import DEFAULT_POOL, FairTaskArbiter, PoolConfig
from .reactor import Cooperator, ServiceDeadlock
from .server import JobRecord, JobServer, JobStatus
from .session import JobHandle, SparkerSession
from .traffic import (
    Arrival,
    TenantProfile,
    TrafficResult,
    arrival_schedule,
    run_open_loop,
    submit_arrival,
)

__all__ = [
    "SparkerSession",
    "JobHandle",
    "JobServer",
    "JobRecord",
    "JobStatus",
    "JobCancelled",
    "PoolConfig",
    "DEFAULT_POOL",
    "FairTaskArbiter",
    "Cooperator",
    "ServiceDeadlock",
    "TenantProfile",
    "Arrival",
    "TrafficResult",
    "arrival_schedule",
    "run_open_loop",
    "submit_arrival",
]
