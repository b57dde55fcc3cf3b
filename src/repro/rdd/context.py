"""SparkerContext: the driver-side entry point.

Owns the simulated cluster, the executors, the schedulers and trackers, and
exposes the blocking user-facing API (``parallelize`` + actions). Each
action submits a job process to the simulation and runs the event loop
until it completes, so user code reads sequentially while the cluster
simulation runs underneath — exactly the Spark driver experience.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Union

from ..cluster import Cluster, ClusterConfig
from ..obs import EventBus, PhaseSpan
from ..serde import SerdeModel, sim_sizeof
from ..sim import Environment, Resource, Stopwatch
from .accumulators import Accumulator, AccumulatorRegistry
from .broadcast import Broadcast
from .costing import ELEMENT_OVERHEAD, cost_of
from .executor import Executor
from .hostpool import HostPool
from .rdd import RDD, ParallelCollectionRDD
from .scheduler import DAGScheduler
from .shuffle import MapOutputTracker
from .storage import BlockTracker
from .task_context import TaskContext

__all__ = ["SparkerContext", "JobScope", "JobCancelled"]


class JobCancelled(RuntimeError):
    """The submitting scope was cancelled; no further engine calls run."""


class JobScope:
    """Per-submission driver state for concurrent use of one context.

    The classic blocking API never installs a scope: every submission
    reads the root stopwatch and the default (``None``) pool — exactly
    the seed behavior. A :mod:`repro.service` worker thread installs one
    scope for the lifetime of its job so that jobs sharing the context
    cannot interleave their phase breakdowns, FAIR pools, or IMM cleanup
    lists. Scopes are thread-local (see
    :meth:`SparkerContext.enter_job_scope`).
    """

    __slots__ = ("pool", "owner", "ordered", "stopwatch", "job_ids",
                 "cancelled")

    def __init__(self, sc: "SparkerContext", pool: Optional[str] = None,
                 ordered: bool = False, owner: Optional[str] = None):
        #: FAIR pool every task of this scope's jobs is billed to
        self.pool = pool
        #: whose gangs this scope's stages are placed against (the service
        #: sets the tenant; see ``DAGScheduler.place_stage``)
        self.owner = owner
        #: deterministic deferred-merge mode for IMM stages (DESIGN.md §16)
        self.ordered = ordered
        #: per-job stopwatch so concurrent breakdowns don't mix
        self.stopwatch = Stopwatch(sc.env, on_record=sc._record_phase)
        #: engine job ids allocated under this scope, for IMM cleanup
        #: when the job is cancelled mid-stage
        self.job_ids: List[int] = []
        #: cancellation reason; once set, the scope's next engine call
        #: (job submission, broadcast) raises :class:`JobCancelled`
        self.cancelled: Optional[str] = None


class SparkerContext:
    """Driver for the simulated Spark/Sparker engine.

    Parameters
    ----------
    config:
        Cluster platform; defaults to the small ``laptop`` preset.
    default_parallelism:
        Partition count used when ``parallelize`` is not told otherwise;
        defaults to the cluster's total executor cores (Spark's default).
    driver_colocated:
        Place the driver on node 0 instead of a dedicated host.
    host_pool:
        Parallel host-compute backend (:class:`~repro.rdd.hostpool.HostPool`
        instance, or an int worker count). ``None`` or a count ``<= 1``
        leaves the serial engine untouched.
    """

    def __init__(self, config: Optional[ClusterConfig] = None,
                 default_parallelism: Optional[int] = None,
                 driver_colocated: bool = False,
                 host_pool: Optional[Union[int, HostPool]] = None):
        self.config = config or ClusterConfig.laptop()
        self.env = Environment()
        #: observability fan-out (see :mod:`repro.obs`); subscribe listeners
        #: here to trace the run — with none attached nothing is recorded.
        self.event_bus = EventBus()
        #: the bus's causal span allocator (see :mod:`repro.obs.tracing`)
        self.tracer = self.event_bus.tracer
        self.cluster = Cluster(self.env, self.config,
                               driver_colocated=driver_colocated)
        self.serde = SerdeModel.from_config(self.config)
        self.block_tracker = BlockTracker()
        self.map_output_tracker = MapOutputTracker()
        self.accumulators = AccumulatorRegistry()
        self.executors: List[Executor] = [
            Executor(self, slot) for slot in self.cluster.executors
        ]
        self._executor_index: Dict[int, Executor] = {
            e.executor_id: e for e in self.executors
        }
        self.dag = DAGScheduler(self)
        if isinstance(host_pool, int):
            host_pool = HostPool(host_pool) if host_pool > 1 else None
        #: parallel host-compute backend; None = untouched serial engine
        self.host_pool: Optional[HostPool] = host_pool
        self.driver_cpu = Resource(self.env, 1, name="driver")
        self.driver_getters = Resource(self.env,
                                       self.config.driver_result_threads,
                                       name="driver-getters")
        self._root_stopwatch = Stopwatch(self.env,
                                         on_record=self._record_phase)
        #: thread-local JobScope holder (service mode); the classic
        #: blocking API never sets it
        self._scopes = threading.local()
        #: FAIR task arbiter (see :mod:`repro.service.fair`); None = the
        #: seed path, where executors acquire slots FIFO from their own
        #: Resource
        self.task_arbiter = None
        self.default_parallelism = (default_parallelism
                                    or self.cluster.total_cores)
        self._next_rdd_id = 0
        self._next_shuffle_id = 0
        self._next_job_id = 0
        self._next_collective_id = 0
        self._next_broadcast_id = 0
        self._stopped = False
        #: armed fault controller (see :mod:`repro.faults`); None = no
        #: injection and no recovery machinery anywhere in the engine
        self.faults = None
        # local import: repro.faults.health only needs obs at module level
        from ..faults.health import ExecutorHealthRegistry
        #: per-executor failure/straggle scoring, quarantine and backoff
        #: (see :mod:`repro.faults.health`); always on, costs nothing on
        #: clean runs
        self.health = ExecutorHealthRegistry(self)
        #: speculative-execution policy (see
        #: :class:`~repro.rdd.speculation.SpeculationPolicy`); None = no
        #: straggler monitor and bit-identical scheduling to the seed
        self.speculation = None

    # ----------------------------------------------------------------- plumbing
    def _record_phase(self, key: str, seconds: float, now: float) -> None:
        """Mirror every closed stopwatch span onto the event bus."""
        if self.event_bus.active:
            tracer = self.event_bus.tracer
            self.event_bus.emit(PhaseSpan.fast(
                time=now, key=key, seconds=seconds,
                span_id=tracer.new_span(),
                parent_span_id=tracer.current_parent))

    def _register_rdd(self, _rdd: RDD) -> int:
        rdd_id = self._next_rdd_id
        self._next_rdd_id += 1
        return rdd_id

    def shuffle_manager_new_id(self) -> int:
        shuffle_id = self._next_shuffle_id
        self._next_shuffle_id += 1
        return shuffle_id

    @property
    def next_job_id(self) -> int:
        """The id :meth:`new_job_id` hands out next: a driver reads it just
        before submitting to find its own job's stages in the stage log."""
        return self._next_job_id

    def new_job_id(self) -> int:
        job_id = self._next_job_id
        self._next_job_id += 1
        scope = getattr(self._scopes, "scope", None)
        if scope is not None:
            scope.job_ids.append(job_id)
        return job_id

    def new_collective_id(self) -> int:
        """Ids of split-aggregation collectives (1-based, per context)."""
        self._next_collective_id += 1
        return self._next_collective_id

    def new_broadcast_id(self) -> int:
        broadcast_id = self._next_broadcast_id
        self._next_broadcast_id += 1
        return broadcast_id

    # ------------------------------------------------------------- job scopes
    @property
    def stopwatch(self) -> Stopwatch:
        """The submitting scope's stopwatch (root when no scope is set).

        Every engine call site reads this on the driver thread that is
        doing the submission, so per-scope resolution gives each
        concurrent job its own phase breakdown; without a scope this is
        the context-wide root stopwatch, as in the seed.
        """
        scope = getattr(self._scopes, "scope", None)
        return self._root_stopwatch if scope is None else scope.stopwatch

    def job_scope(self) -> Optional[JobScope]:
        """This thread's active :class:`JobScope`, or None."""
        return getattr(self._scopes, "scope", None)

    def enter_job_scope(self, scope: JobScope) -> JobScope:
        """Install ``scope`` for the calling thread (service workers)."""
        self._scopes.scope = scope
        return scope

    def exit_job_scope(self) -> None:
        self._scopes.scope = None

    def executor_by_id(self, executor_id: int) -> Executor:
        try:
            return self._executor_index[executor_id]
        except KeyError:
            raise KeyError(f"no executor {executor_id}") from None

    @property
    def now(self) -> float:
        """Current virtual time (seconds since context creation)."""
        return self.env.now

    def driver_work(self, seconds: float) -> Generator:
        """Process body: occupy the single driver thread for ``seconds``."""
        if seconds < 0:
            raise ValueError(f"negative driver work: {seconds}")
        yield self.driver_cpu.acquire()
        try:
            if seconds > 0:
                yield self.env.timeout(seconds)
        finally:
            self.driver_cpu.release()

    def driver_fetch_work(self, seconds: float) -> Generator:
        """Process body: occupy one result-getter thread for ``seconds``.

        Spark deserializes incoming task results on a small thread pool
        (``task-result-getter``, 4 threads by default), separate from the
        single-threaded user/merge path.
        """
        if seconds < 0:
            raise ValueError(f"negative driver work: {seconds}")
        yield self.driver_getters.acquire()
        try:
            if seconds > 0:
                yield self.env.timeout(seconds)
        finally:
            self.driver_getters.release()

    # --------------------------------------------------------------- creation
    def parallelize(self, data: Sequence[Any],
                    num_slices: Optional[int] = None) -> RDD:
        """Distribute a driver-side collection."""
        if self._stopped:
            raise RuntimeError("context is stopped")
        if num_slices is None:
            num_slices = self.default_parallelism
        return ParallelCollectionRDD(self, data, num_slices)

    def range(self, n: int, num_slices: Optional[int] = None) -> RDD:
        """An RDD of ``0..n-1``."""
        return self.parallelize(range(n), num_slices)

    def accumulator(self, zero: Any = 0,
                    add_op: Optional[Callable[[Any, Any], Any]] = None,
                    name: str = "") -> Accumulator:
        """Create a write-only shared counter (Spark's accumulator).

        ``add_op`` defaults to ``+``; pass a custom associative op for
        other monoids (max, list concat, ...).
        """
        if add_op is None:
            add_op = lambda a, b: a + b  # noqa: E731
        return self.accumulators.create(self, zero, add_op, name)

    def broadcast(self, value: Any) -> Broadcast:
        """Replicate ``value`` to every node (binomial tree, blocking)."""
        scope = getattr(self._scopes, "scope", None)
        if scope is not None and scope.cancelled is not None:
            raise JobCancelled(scope.cancelled)
        bc = Broadcast(self, value)
        proc = self.env.process(self.cluster.network.broadcast_tree(
            self.cluster.driver_node, self.cluster.nodes, bc.sim_bytes))
        self.env.run(until=proc)
        return bc

    # ------------------------------------------------------------------- jobs
    def run_job(self, rdd: RDD,
                func: Callable[[int, list, TaskContext], Any],
                partitions: Optional[Sequence[int]] = None) -> list:
        """Run ``func`` over partitions and return its results (blocking).

        Scope-dependent submission state (FAIR pool, trace parent) is
        captured *here*, on the submitting thread — the scheduler
        generator body may execute on a different thread (the service
        reactor), where thread-locals would be wrong.
        """
        if self._stopped:
            raise RuntimeError("context is stopped")
        scope = getattr(self._scopes, "scope", None)
        if scope is not None and scope.cancelled is not None:
            raise JobCancelled(scope.cancelled)
        proc = self.env.process(
            self.dag.run_job(rdd, func, partitions,
                             job_id=self.new_job_id(),
                             pool=None if scope is None else scope.pool,
                             owner=None if scope is None else scope.owner,
                             parent_span=self.tracer.current_parent),
            name="job")
        return self.env.run(until=proc)

    def run_reduced_job(self, rdd: RDD,
                        func: Callable[[int, list, TaskContext], Any],
                        reduce_op: Callable[[Any, Any], Any],
                        partitions: Optional[Sequence[int]] = None,
                        detail: bool = False,
                        on_merged: Optional[Callable] = None) -> Any:
        """Run an IMM reduced-result stage (blocking).

        Returns ``[(executor_id, object_id), ...]``; read the merged values
        with ``sc.executor_by_id(eid).object_manager.get(oid)``. See
        :meth:`DAGScheduler.run_reduced_job` for ``partitions``/``detail``/
        ``on_merged``. Pool / ordered-merge / trace parent come from the
        submitting thread's scope, as in :meth:`run_job`.
        """
        if self._stopped:
            raise RuntimeError("context is stopped")
        scope = getattr(self._scopes, "scope", None)
        if scope is not None and scope.cancelled is not None:
            raise JobCancelled(scope.cancelled)
        job_id = self.new_job_id()
        proc = self.env.process(
            self.dag.run_reduced_job(rdd, func, reduce_op, job_id,
                                     partitions=partitions, detail=detail,
                                     on_merged=on_merged,
                                     pool=None if scope is None
                                     else scope.pool,
                                     owner=None if scope is None
                                     else scope.owner,
                                     ordered=scope is not None
                                     and scope.ordered,
                                     parent_span=self.tracer.current_parent),
            name="reduced-job")
        return self.env.run(until=proc)

    # ----------------------------------------------------------------- actions
    def collect(self, rdd: RDD) -> list:
        chunks = self.run_job(rdd, lambda _i, data, _ctx: list(data))
        out: list = []
        for chunk in chunks:
            out.extend(chunk)
        return out

    def count(self, rdd: RDD) -> int:
        return sum(self.run_job(
            rdd, lambda _i, data, ctx: (
                ctx.charge(len(data) * ELEMENT_OVERHEAD), len(data))[1]))

    def take(self, rdd: RDD, n: int) -> list:
        """First ``n`` elements, scanning partitions incrementally."""
        if n < 0:
            raise ValueError(f"take(n) needs n >= 0, got {n}")
        if n == 0:
            return []
        out: list = []
        total = rdd.num_partitions()
        scanned = 0
        wave = 1
        while scanned < total and len(out) < n:
            parts = list(range(scanned, min(total, scanned + wave)))
            for chunk in self.run_job(
                    rdd, lambda _i, data, _ctx: list(data), parts):
                out.extend(chunk)
            scanned += len(parts)
            wave *= 4  # Spark's quadruple-and-retry scan policy
        return out[:n]

    def reduce(self, rdd: RDD, op: Callable[[Any, Any], Any]) -> Any:
        def fold_partition(_i: int, data: list, ctx: TaskContext) -> Any:
            if not data:
                return None
            acc = data[0]
            for x in data[1:]:
                acc = op(acc, x)
                ctx.charge(cost_of(op, acc, x) + ELEMENT_OVERHEAD)
            return acc

        partials = [p for p in self.run_job(rdd, fold_partition)
                    if p is not None]
        if not partials:
            raise ValueError("reduce() of an empty RDD")
        return self._driver_merge(partials, op)

    def fold(self, rdd: RDD, zero: Any, op: Callable[[Any, Any], Any]) -> Any:
        def fold_partition(_i: int, data: list, ctx: TaskContext) -> Any:
            acc = zero
            for x in data:
                acc = op(acc, x)
                ctx.charge(cost_of(op, acc, x) + ELEMENT_OVERHEAD)
            return acc

        partials = self.run_job(rdd, fold_partition)
        return self._driver_merge([zero] + partials, op)

    def aggregate(self, rdd: RDD, zero: Any, seq_op: Callable,
                  comb_op: Callable) -> Any:
        def fold_partition(_i: int, data: list, ctx: TaskContext) -> Any:
            acc = zero
            for x in data:
                acc = seq_op(acc, x)
                ctx.charge(cost_of(seq_op, acc, x) + ELEMENT_OVERHEAD)
            return acc

        partials = self.run_job(rdd, fold_partition)
        return self._driver_merge([zero] + partials, comb_op)

    def _driver_merge(self, values: list, op: Callable[[Any, Any], Any]) -> Any:
        """Sequential merge on the driver thread (the non-scalable step)."""
        if not values:
            raise ValueError("nothing to merge")

        def body() -> Generator:
            acc = values[0]
            merge_bw = self.config.merge_bandwidth
            for value in values[1:]:
                acc = op(acc, value)
                yield from self.driver_work(
                    sim_sizeof(acc) / merge_bw + cost_of(op, acc, value))
            return acc

        proc = self.env.process(body(), name="driver-merge")
        return self.env.run(until=proc)

    # ------------------------------------------------------------------ faults
    def kill_executor(self, executor_id: int) -> None:
        """Fault injection: lose an executor and everything it holds."""
        self.executor_by_id(executor_id).kill()

    def stop(self) -> None:
        """Shut the context down (further jobs are rejected).

        Idempotent and exception-safe: every teardown step runs even if
        an earlier one raises, so a job that died mid-stage cannot leave
        event-bus listeners or host-pool workers behind — the two leaks
        that made long-lived multi-context processes (the job service,
        test suites) accumulate state before this existed — and every
        executor's blocks, shuffle buckets and IMM objects are released
        here, not when the cyclic collector next runs. The first
        exception, if any, propagates after all steps have run.
        """
        if self._stopped:
            return
        self._stopped = True
        host_pool, self.host_pool = self.host_pool, None
        steps = [] if host_pool is None else [host_pool.close]
        steps.append(self.event_bus.close)
        # blocks, buckets and IMM objects die here, not at a later collection
        steps += [executor.release_state for executor in self.executors]
        failure: Optional[BaseException] = None
        for step in steps:
            try:
                step()
            except BaseException as exc:  # noqa: BLE001 - collect and go on
                failure = failure or exc
        if failure is not None:
            raise failure

    def __enter__(self) -> "SparkerContext":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (f"<SparkerContext {self.config.name!r} "
                f"executors={len(self.executors)} now={self.env.now:.3f}s>")
