"""Executors: where tasks actually run.

Each executor owns ``executor_cores`` task slots, a memory store for cached
blocks, a shuffle store, and — Sparker's addition — a mutable object
manager for in-memory merge. Submitting a task returns a simulated process
that resolves to the task's result (or fails with the task's exception).

A task attempt's timeline::

    [slot wait] -> task launch overhead -> shuffle fetches (network + deser)
    -> user compute (virtual charges) -> output:
         ShuffleMapTask   : buckets serialized locally (charged in run)
         ResultTask       : serialize + ship result to the driver
         ReducedResultTask: merge into the shared object under its lock
                            (NO serialization — this is IMM's entire point)
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Generator

from ..cluster.placement import ExecutorSlot
from ..obs import BlockEvent, ResidualLost, TaskEnd, TaskMetrics, TaskStart
from ..serde import sim_sizeof
from ..sim import Interrupt, Process, Resource
from .accumulators import pop_task_context, push_task_context
from .shuffle import FetchFailed
from .speculation import SpeculationLost
from .task_context import TaskContext
from .tasks import ReducedResultTask, ResultTask, ShuffleMapTask, Task

if TYPE_CHECKING:  # pragma: no cover
    from .context import SparkerContext

__all__ = ["Executor", "ExecutorLost", "TaskKilled"]


class ExecutorLost(Exception):
    """The executor died while (or before) running the task."""


class TaskKilled(Exception):
    """The task attempt was killed by fault injection."""


class Executor:
    """A simulated Spark executor bound to one cluster slot."""

    def __init__(self, sc: "SparkerContext", slot: ExecutorSlot):
        from .storage import MemoryStore
        from .shuffle import ShuffleStore
        from ..core.imm import MutableObjectManager

        self.sc = sc
        self.slot = slot
        self.executor_id = slot.executor_id
        self.node = slot.node
        self.env = sc.env
        self.alive = True
        self.task_slots = Resource(sc.env, capacity=slot.cores,
                                   name=f"exec{slot.executor_id}.slots")
        self.memory_store = MemoryStore(
            slot.executor_id, sc.cluster.config.executor_memory,
            on_event=self._block_event)
        self.shuffle_store = ShuffleStore(slot.executor_id)
        self.object_manager = MutableObjectManager(self)
        #: per-dimension error-feedback residuals of the opt-in top-k
        #: compression tier, keyed ("topk", payload_size) — executor
        #: state, so it dies (and restarts at zero) with the executor
        self.residuals: dict = {}
        self._running: set = set()
        #: callbacks invoked (in registration order) when this executor dies
        self._death_listeners: list = []
        #: compute-time multiplier; >1.0 makes this executor a straggler
        self.compute_scale = 1.0
        #: completed task attempts, for instrumentation
        self.tasks_run = 0
        #: span of the task body currently running a synchronous section
        #: on this executor (parents block events; best-effort)
        self._current_task_span = -1

    def _block_event(self, op: str, block_id: tuple, nbytes: float) -> None:
        """Mirror a memory-store operation onto the event bus."""
        bus = self.sc.event_bus
        if bus.active:
            rdd_id, partition = block_id
            bus.emit(BlockEvent.fast(time=self.env.now,
                                     executor_id=self.executor_id, op=op,
                                     rdd_id=rdd_id, partition=partition,
                                     nbytes=nbytes,
                                     span_id=bus.tracer.new_span(),
                                     parent_span_id=self._current_task_span))

    # ------------------------------------------------------------------ submit
    def submit(self, task: Task) -> Process:
        """Launch ``task``; returns a process resolving to its result."""
        proc = self.env.process(self._run(task),
                                name=f"task:{task.stage_id}."
                                     f"{task.partition}@{self.executor_id}")
        self._running.add(proc)
        proc.add_callback(lambda _e: self._running.discard(proc))
        return proc

    def _run(self, task: Task) -> Generator:
        if not self.alive:
            raise ExecutorLost(f"executor {self.executor_id} is dead")
        env = self.env
        cfg = self.sc.cluster.config
        bus = self.sc.event_bus
        queued = env.now
        arbiter = self.sc.task_arbiter
        if arbiter is None:
            yield self.task_slots.acquire()
        else:
            # FAIR mode: the arbiter owns grant ordering; it reserves a
            # slot for us before we touch ``task_slots``, so the acquire
            # inside ``admit`` is always immediate and the Resource's
            # FIFO waiter queue stays empty (an interrupted waiter would
            # otherwise leak the slot a later release hands it).
            yield from arbiter.admit(self, task)
        began = env.now
        tracing = bus.active
        span = -1
        locality = "ANY"
        if tracing:
            tracer = bus.tracer
            span = tracer.new_span()
            # at launch: by task end a miss has cached the block right here
            locality = self._locality(task)
            bus.emit(TaskStart.fast(
                time=began, stage_id=task.stage_id,
                stage_attempt=task.stage_attempt,
                partition=task.partition, attempt=task.attempt,
                executor_id=self.executor_id,
                host=self.node.hostname, span_id=span,
                parent_span_id=tracer.stage_span(
                    task.stage_id, task.stage_attempt)))
        stats = {"slot_wait": began - queued, "fetch_wait": 0.0,
                 "deserialize_time": 0.0, "compute_time": 0.0,
                 "serialize_time": 0.0, "output_wait": 0.0,
                 "result_bytes": 0.0}
        status = "ok"
        try:
            if not self.alive:
                raise ExecutorLost(f"executor {self.executor_id} died")
            yield env.timeout(cfg.task_overhead)
            ctx = TaskContext(task.stage_id, task.partition, task.attempt,
                              executor=self)
            fetch_began = env.now
            for shuffle_id, reduce_index in task.fetch_plan():
                deser = yield from self._fetch_shuffle(shuffle_id,
                                                       reduce_index, ctx)
                stats["deserialize_time"] += deser
            stats["fetch_wait"] = env.now - fetch_began
            memo = None
            host_pool = self.sc.host_pool
            if host_pool is not None:
                memo = host_pool.claim(task, self)
            self._current_task_span = span
            try:
                if memo is not None:
                    # Replay the precomputed body: same result, same charge,
                    # same bucket writes, at the same point in the timeline.
                    result = memo.replay(ctx, self)
                else:
                    if host_pool is not None and host_pool.enabled:
                        host_pool.stats["inline"] += 1
                    push_task_context(ctx)
                    try:
                        result = task.run(ctx)
                    finally:
                        pop_task_context()
            finally:
                self._current_task_span = -1
            charged = ctx.drain_charges()
            if self.compute_scale != 1.0:
                charged *= self.compute_scale
            stats["compute_time"] = charged
            if charged > 0:
                yield env.timeout(charged)
            # Speculation fence: a gated attempt must win the commit
            # race before any output or accumulator update escapes.
            gate = getattr(task, "commit_gate", None)
            claim = None
            if gate is not None:
                claim = (self.executor_id, task.attempt)
                if not gate.claim(task.partition, claim):
                    raise SpeculationLost(
                        f"partition {task.partition} already committed by "
                        f"attempt {gate.winner(task.partition)}")
            emit_began = env.now
            try:
                output = yield from self._emit(task, result, ctx, stats,
                                               parent_span=span)
            except BaseException:
                # Dying mid-commit re-opens the partition for the
                # surviving copy.
                if gate is not None:
                    gate.release(task.partition, claim)
                raise
            stats["output_wait"] = (env.now - emit_began
                                    - stats["serialize_time"])
            self.tasks_run += 1
            # Exactly-once accumulator semantics: only a fully successful
            # attempt publishes its buffered updates.
            if ctx.accumulator_updates:
                self.sc.accumulators.publish(ctx.accumulator_updates)
            return output
        except FetchFailed:
            status = "fetch_failed"
            raise
        except SpeculationLost:
            status = "lost_race"
            raise
        except Interrupt as intr:
            status = "killed"
            raise TaskKilled(str(intr.cause)) from intr
        except BaseException:
            status = "failed"
            raise
        finally:
            self.task_slots.release()
            if arbiter is not None:
                arbiter.released(self, task, env.now - began)
            if tracing and bus.active:
                bus.emit(TaskEnd.fast(
                    time=env.now, stage_id=task.stage_id,
                    stage_attempt=task.stage_attempt,
                    partition=task.partition, attempt=task.attempt,
                    executor_id=self.executor_id, host=self.node.hostname,
                    began=began, status=status,
                    metrics=TaskMetrics.fast(locality=locality, **stats),
                    span_id=span,
                    parent_span_id=bus.tracer.stage_span(
                        task.stage_id, task.stage_attempt)))

    # ------------------------------------------------------------------- output
    def _emit(self, task: Task, result: Any, ctx: TaskContext,
              stats: dict, parent_span: int = -1) -> Generator:
        env = self.env
        sc = self.sc
        if isinstance(task, ShuffleMapTask):
            # Buckets were stored and their serialization charged in run();
            # only the (tiny) MapStatus goes to the driver.
            nbytes = sim_sizeof(result)
            stats["result_bytes"] = nbytes
            yield from sc.cluster.network.transfer(
                self.node, sc.cluster.driver_node, nbytes)
            return result
        if isinstance(task, ReducedResultTask):
            # In-memory merge: the shared object absorbs the result locally.
            stats["result_bytes"] = sim_sizeof(result)
            if task.ordered:
                # Deterministic service mode: park the partial keyed by
                # partition (free — the fold charges the merge cost later,
                # in sorted partition order, via the scheduler's stage-end
                # fold pass). Arrival order becomes unobservable.
                self.object_manager.deposit(
                    task.object_id, task.stage_attempt, task.partition,
                    result)
                return (self.executor_id, task.object_id)
            yield from self.object_manager.merge(
                task.object_id, task.stage_attempt, result, task.reduce_op,
                parent_span=parent_span)
            if task.on_merged is not None:
                task.on_merged(self.executor_id, task.partition,
                               task.object_id)
            return (self.executor_id, task.object_id)
        if isinstance(task, ResultTask):
            nbytes = sim_sizeof(result)
            ser_time = sc.serde.ser_time_bytes(nbytes)
            stats["serialize_time"] = ser_time
            stats["result_bytes"] = nbytes
            yield env.timeout(ser_time)
            yield from sc.cluster.network.transfer(
                self.node, sc.cluster.driver_node, nbytes)
            return (result, nbytes)
        raise TypeError(f"unknown task type {type(task).__name__}")

    def _locality(self, task: Task) -> str:
        """Spark-style locality level of this attempt's placement, as of
        its launch: ``PROCESS_LOCAL`` when pinned here or the cached block
        it reads is here, else ``ANY`` — a miss rebuilds the block from
        lineage wherever it runs (the attempt that builds a replica
        included), so a same-node holder is no nearer than any other."""
        if (task.rdd.pinned_executor(task.partition) == self.executor_id
                or self.executor_id
                in task.rdd.preferred_executors(task.partition)):
            return "PROCESS_LOCAL"
        return "ANY"

    # ------------------------------------------------------------------- fetch
    def _fetch_shuffle(self, shuffle_id: int, reduce_index: int,
                       ctx: TaskContext) -> Generator:
        """Fetch every map output for ``(shuffle_id, reduce_index)``.

        Remote buckets transfer concurrently (the flow network fair-shares
        this node's ingress); deserialization of all buckets is charged to
        the task. Returns the deserialization seconds (the CPU share of
        the fetch window), for task metrics.
        """
        env = self.env
        sc = self.sc
        tracker = sc.map_output_tracker
        num_maps = tracker.num_maps(shuffle_id)
        records: list = []
        deser_bytes = 0.0
        legs = []
        for map_index in range(num_maps):
            status = tracker.status(shuffle_id, map_index)
            if status is None:
                raise FetchFailed(shuffle_id, map_index, -1)
            source = sc.executor_by_id(status.executor_id)
            if not source.alive:
                raise FetchFailed(shuffle_id, map_index, status.executor_id)
            bucket = source.shuffle_store.get_bucket(
                shuffle_id, map_index, reduce_index)
            if bucket is None:
                raise FetchFailed(shuffle_id, map_index, status.executor_id)
            data, nbytes = bucket
            records.extend(data)
            if nbytes <= 0:
                continue
            deser_bytes += nbytes
            legs.append((source.node, self.node, nbytes))
        if legs:
            # One batched process for all map-output streams instead of one
            # per bucket; completion time is identical (max-min fair shares
            # at an instant do not depend on same-instant join order).
            yield from sc.cluster.network.transfer_many(legs)
        deser_time = 0.0
        if deser_bytes > 0:
            deser_time = sc.serde.deser_time_bytes(deser_bytes)
            yield env.timeout(deser_time)
        ctx.fetched[(shuffle_id, reduce_index)] = records
        return deser_time

    # -------------------------------------------------------------------- kill
    def add_death_listener(self, callback) -> None:
        """Register ``callback(executor)`` to run when this executor dies.

        Listeners fire after running tasks are interrupted; with the
        kernel's deferred interrupts that makes them the synchronous
        failure-detection hook collectives use to tear themselves down.
        """
        self._death_listeners.append(callback)

    def remove_death_listener(self, callback) -> None:
        try:
            self._death_listeners.remove(callback)
        except ValueError:
            pass

    def release_state(self) -> None:
        """Drop cached blocks (and the columns derived from them), shuffle
        buckets and IMM objects: executor loss and ``sc.stop()``."""
        self.memory_store.clear()
        self.shuffle_store.clear()
        self.object_manager.clear_all()

    def kill(self, reason: str = "fault injection") -> None:
        """Simulate executor loss: drop state, interrupt running tasks."""
        if not self.alive:
            return
        self.alive = False
        self.release_state()
        if self.residuals:
            # The top-k tier's error-feedback residuals die with the
            # executor; record how much accumulated mass was lost.
            bus = self.sc.event_bus
            if bus.active:
                squared = 0.0
                for vec in self.residuals.values():
                    squared += float((vec * vec).sum())
                bus.emit(ResidualLost.fast(
                    time=self.env.now, executor_id=self.executor_id,
                    num_residuals=len(self.residuals),
                    residual_norm=math.sqrt(squared), reason=reason))
        self.residuals.clear()
        self.sc.block_tracker.unregister_executor(self.executor_id)
        self.sc.map_output_tracker.unregister_executor(self.executor_id)
        for proc in list(self._running):
            if proc.is_alive:
                proc.interrupt(reason)
        listeners, self._death_listeners = self._death_listeners, []
        for callback in listeners:
            callback(self)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (f"<Executor {self.executor_id} on {self.node.hostname} "
                f"{state}>")
