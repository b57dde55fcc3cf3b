"""The multi-tenant job server: one context, many concurrent drivers.

A :class:`JobServer` owns a single long-lived
:class:`~repro.rdd.context.SparkerContext` and accepts asynchronous job
submissions from many simulated tenants. Each admitted job runs its
(unchanged, synchronous) driver code on a worker thread scheduled by the
:class:`~repro.service.reactor.Cooperator`. The server registers its
tenant pools on the context's own
:class:`~repro.rdd.fair.FairTaskArbiter`, which then shares task slots
across them by weight; a pool's ``max_running`` bounds how many of its
jobs run at once, and queues the rest.

Determinism: a fixed submission schedule (e.g. a seeded
:mod:`~repro.service.traffic` generator) replays to a bit-identical
virtual timeline, and every job's model output is byte-identical to the
same job run alone on a fresh context — IMM stages run in ordered
deferred-merge mode (see DESIGN.md §16), which makes cross-job task
interleaving unobservable in the fold result.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..cluster import ClusterConfig
from ..obs import PoolSample, ServiceJobFinished, ServiceJobSubmitted
from ..rdd.context import JobCancelled, JobScope, SparkerContext
from ..rdd.fair import DEFAULT_POOL, PoolConfig
from ..sim import Process
from .reactor import Cooperator

__all__ = ["JobServer", "JobRecord", "JobStatus"]


class JobStatus:
    """Lifecycle states of a service job (string constants)."""

    QUEUED = "queued"        #: admitted, waiting for a pool job slot
    RUNNING = "running"      #: driver code executing on a worker thread
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset((SUCCEEDED, FAILED, CANCELLED))


class JobRecord:
    """Server-side state of one submitted job."""

    __slots__ = ("service_job_id", "tenant", "pool", "workload", "body",
                 "status", "result", "exception", "scope", "worker",
                 "submitted", "started", "finished", "cancel_requested",
                 "done_event")

    def __init__(self, service_job_id: int, tenant: str, pool: str,
                 workload: str, body: Callable[[], Any],
                 scope: JobScope, submitted: float, done_event):
        self.service_job_id = service_job_id
        self.tenant = tenant
        self.pool = pool
        self.workload = workload
        self.body: Optional[Callable[[], Any]] = body
        self.status = JobStatus.QUEUED
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.scope = scope
        self.worker = None
        self.submitted = submitted
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.cancel_requested = False
        #: simulation event succeeded at completion, so other *jobs* can
        #: wait on this one without blocking the reactor
        self.done_event = done_event

    @property
    def done(self) -> bool:
        return self.status in JobStatus.TERMINAL

    @property
    def latency(self) -> Optional[float]:
        """Submission-to-completion virtual seconds (None while live)."""
        if self.finished is None:
            return None
        return self.finished - self.submitted

    def __repr__(self) -> str:
        return (f"<JobRecord #{self.service_job_id} {self.workload} "
                f"tenant={self.tenant} pool={self.pool} {self.status}>")


class JobServer:
    """Long-lived job service over one shared :class:`SparkerContext`.

    Parameters
    ----------
    config:
        Cluster platform for the shared context.
    pools:
        ``{name: PoolConfig}`` FAIR pools; unknown pool names submitted
        later are auto-registered at weight 1.
    default_pool:
        Pool used when a submission names none.
    """

    def __init__(self, config: Optional[ClusterConfig] = None,
                 pools: Optional[Dict[str, PoolConfig]] = None,
                 default_pool: str = DEFAULT_POOL, **context_kwargs: Any):
        self.sc = SparkerContext(config, **context_kwargs)
        self.cooperator = Cooperator(self.sc.env)
        #: the context's own slot arbiter, given this server's pools
        self.arbiter = self.sc.task_arbiter
        self.arbiter.register_pools(pools, default_pool)
        self.default_pool = default_pool
        self.jobs: List[JobRecord] = []
        self._ids = itertools.count()
        #: per-pool count of spawned-and-unfinished jobs
        self._pool_running: Dict[str, int] = {}
        #: per-pool admission queues (jobs beyond max_running)
        self._pool_pending: Dict[str, Deque[JobRecord]] = {}
        #: cross-job cache: key -> ("loading", Event) | ("ready", value)
        self._shared: Dict[Any, Tuple[str, Any]] = {}
        self._closed = False

    # -------------------------------------------------------------- submit
    def submit(self, body: Callable[[], Any], *,
               pool: Optional[str] = None, tenant: str = "anonymous",
               workload: str = "<job>") -> JobRecord:
        """Admit ``body`` as an asynchronous job; returns its record.

        ``body`` runs on its own worker thread with a
        :class:`~repro.rdd.context.JobScope` installed: pool billing, a
        per-job stopwatch, and IMM stages merged in the deterministic
        ordered mode, which the scope itself selects (DESIGN.md §16). A
        job beyond its pool's ``max_running`` waits in the pool's queue.
        Callable from the owner thread, from another job, or from a
        simulation process (traffic generators) — the job starts at the
        reactor's next turn.
        """
        if self._closed:
            raise RuntimeError("job server is closed")
        pool = pool or self.default_pool
        pool_config = self.arbiter.pools.setdefault(pool, PoolConfig())
        scope = JobScope(self.sc, pool=pool)
        record = JobRecord(next(self._ids), tenant, pool, workload, body,
                           scope, submitted=self.sc.now,
                           done_event=self.sc.env.event(name="job-done"))
        queue_job = (pool_config.max_running is not None
                     and self._pool_running.get(pool, 0)
                     >= pool_config.max_running)
        if queue_job:
            self._pool_pending.setdefault(pool, deque()).append(record)
        self.jobs.append(record)
        bus = self.sc.event_bus
        if bus.active:
            bus.emit(ServiceJobSubmitted.fast(
                time=self.sc.now, service_job_id=record.service_job_id,
                tenant=tenant, pool=pool, workload=workload,
                queued=queue_job))
        if not queue_job:
            self._start(record)
        return record

    def _start(self, record: JobRecord) -> None:
        record.status = JobStatus.RUNNING
        self._pool_running[record.pool] = (
            self._pool_running.get(record.pool, 0) + 1)
        record.worker = self.cooperator.spawn(
            lambda: self._job_main(record),
            name=f"{record.workload}#{record.service_job_id}")

    def _job_main(self, record: JobRecord) -> None:
        sc = self.sc
        scope = record.scope
        sc.enter_job_scope(scope)
        record.started = sc.now
        try:
            record.result = record.body()
        except BaseException as exc:  # noqa: BLE001 - job isolation
            record.exception = exc
            if record.cancel_requested or isinstance(exc, JobCancelled):
                record.status = JobStatus.CANCELLED
            else:
                record.status = JobStatus.FAILED
        else:
            record.status = JobStatus.SUCCEEDED
        finally:
            sc.exit_job_scope()
            if record.status != JobStatus.SUCCEEDED:
                # A job that unwound mid-stage may have left partial IMM
                # aggregators on executors; sweep every engine job this
                # scope submitted.
                for job_id in scope.job_ids:
                    for executor in sc.executors:
                        executor.object_manager.clear_job(job_id)
            self._finish(record)
            self._pool_running[record.pool] -= 1
            self._dequeue_pending(record.pool)

    def _finish(self, record: JobRecord) -> None:
        """Terminal bookkeeping of a job that ran or was withdrawn queued."""
        sc = self.sc
        # the closure holds the session and this server: kept, it would pin
        # every job's result until the cyclic collector runs
        record.body = None
        record.finished = sc.now
        bus = sc.event_bus
        if bus.active:
            bus.emit(ServiceJobFinished.fast(
                time=sc.now, service_job_id=record.service_job_id,
                tenant=record.tenant, pool=record.pool,
                workload=record.workload, status=record.status,
                submitted=record.submitted,
                latency=sc.now - record.submitted))
        record.done_event.succeed(record.status)

    def _dequeue_pending(self, pool: str) -> None:
        pending = self._pool_pending.get(pool)
        config = self.arbiter.pools.get(pool) or PoolConfig()
        while pending and (config.max_running is None
                           or self._pool_running.get(pool, 0)
                           < config.max_running):
            self._start(pending.popleft())

    # ---------------------------------------------------------------- wait
    def wait(self, record: JobRecord) -> JobRecord:
        """Block until ``record`` reaches a terminal status.

        On the owner thread this pumps the reactor; from another job's
        worker thread it parks that job on the record's completion
        event, so jobs can depend on jobs.
        """
        if record.done:
            return record
        if self.cooperator.owns_current_thread():
            self.sc.env.run(until=record.done_event)
        else:
            self.cooperator.pump(lambda: record.done)
        return record

    def drain(self) -> None:
        """Run until every submitted job has finished."""
        self.cooperator.pump(
            lambda: all(job.done for job in self.jobs))

    # -------------------------------------------------------------- cancel
    def cancel(self, record: JobRecord, reason: str = "cancelled") -> bool:
        """Request cancellation of ``record``; True if it will not finish.

        A queued job is withdrawn immediately. A running job is
        interrupted mid-stage when its worker is parked on a live
        scheduler process; otherwise its next engine call (job
        submission, broadcast) raises
        :class:`~repro.rdd.context.JobCancelled`. Already-finished jobs
        return False.
        """
        if record.done:
            return False
        record.cancel_requested = True
        record.scope.cancelled = reason
        if record.status == JobStatus.QUEUED:
            pending = self._pool_pending.get(record.pool)
            if pending is not None and record in pending:
                pending.remove(record)
            record.status = JobStatus.CANCELLED
            self._finish(record)
            return True
        worker = record.worker
        parked = worker.parked_on if worker is not None else None
        if isinstance(parked, Process) and parked.is_alive:
            parked.interrupt(reason)
        return True

    # ------------------------------------------------------- shared state
    def shared(self, key: Any, loader: Callable[[], Any]) -> Any:
        """Cross-job cache: compute ``loader()`` once per ``key``.

        The first job to ask runs the loader (which may block on the
        simulation — e.g. caching and counting a dataset RDD); jobs
        asking while it is in flight park until the value is ready.
        Used for dataset RDDs and shared broadcasts keyed by dataset
        identity.
        """
        entry = self._shared.get(key)
        if entry is None:
            event = self.sc.env.event(name=f"shared:{key}")
            self._shared[key] = ("loading", event)
            try:
                value = loader()
            except BaseException as exc:
                # Failed loads don't poison the cache: the next asker
                # retries, and in-flight waiters see this failure.
                del self._shared[key]
                event.fail(exc)
                raise
            self._shared[key] = ("ready", value)
            event.succeed(value)
            return value
        kind, payload = entry
        if kind == "ready":
            return payload
        return self.sc.env.run(until=payload)

    # ------------------------------------------------------------ metrics
    def sample_pools(self) -> Dict[str, Dict[str, float]]:
        """Snapshot per-pool arbiter accounting (and emit PoolSamples)."""
        snapshot = self.arbiter.snapshot()
        bus = self.sc.event_bus
        if bus.active:
            queued = self.arbiter.queued()
            for pool, stats in snapshot.items():
                bus.emit(PoolSample.fast(
                    time=self.sc.now, pool=pool, weight=stats["weight"],
                    running=int(stats["running"]),
                    task_seconds=stats["task_seconds"],
                    queued_tickets=queued))
        return snapshot

    def slot_utilisation(self) -> Dict[str, Any]:
        """Where the work ran since the server started: per executor the
        task attempts completed, the slot-seconds held and their share of
        ``cores x window``; ``idle_executors`` counts the alive executors
        that ran nothing — with more concurrent gangs than one executor
        group holds it must be 0 (DESIGN §16, *Placement*)."""
        sc = self.sc
        window = sc.now
        executors = {}
        for executor in sc.executors:
            seconds = self.arbiter.slot_seconds.get(executor.executor_id, 0.0)
            capacity = executor.slot.cores * window
            executors[executor.executor_id] = {
                "tasks": executor.tasks_run,
                "slot_seconds": seconds,
                "utilisation": seconds / capacity if capacity > 0 else 0.0,
            }
        return {
            "window": window,
            "executors": executors,
            "idle_executors": sum(
                1 for executor in sc.executors
                if executor.alive and executor.tasks_run == 0),
        }

    # ------------------------------------------------------------ teardown
    def close(self) -> None:
        """Stop the server, join its idle job threads and tear the shared
        context down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.cooperator.close()
        self.sc.stop()

    def __enter__(self) -> "JobServer":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        live = sum(1 for job in self.jobs if not job.done)
        return (f"<JobServer jobs={len(self.jobs)} live={live} "
                f"pools={sorted(self.arbiter.pools)}>")
