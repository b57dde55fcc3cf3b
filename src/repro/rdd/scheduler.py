"""The DAG scheduler: stages, task placement, retries, lineage recovery.

Jobs arrive as ``(rdd, func, partitions)``. The scheduler walks the lineage
for incomplete shuffle dependencies, runs their map stages bottom-up, then
runs the final stage. Three stage flavours:

* **ShuffleMapStage** — produces map outputs for one shuffle dependency,
* **ResultStage** — applies the job function and returns results to the
  driver (each result pays serialize → network → driver-CPU deserialize,
  the cost chain the paper's tree aggregation is built on),
* **ReducedResultStage** — the paper's IMM stage (§4.3): results merge into
  executor-shared objects; *any* task failure aborts and resubmits the
  whole stage, because shared mutable state breaks task independence.

Fault handling mirrors Spark: plain task failures retry on another executor
(up to 4 attempts); a ``FetchFailed`` resubmits the lost parent map stage
and retries the current stage; lost cached blocks recompute through
lineage in ``RDD.iterator``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..obs import (
    JobEnd,
    JobStart,
    SpeculativeAttempt,
    StageCompleted,
    StageSubmitted,
)
from ..sim import Interrupt, SimulationError
from .executor import Executor, ExecutorLost
from .rdd import RDD, ShuffleDependency
from .shuffle import FetchFailed
from .speculation import (
    BACKUP_FAILED,
    CommitGate,
    SpeculationLost,
    SpeculationWave,
)
from .tasks import ReducedResultTask, ResultTask, ShuffleMapTask, Task

if TYPE_CHECKING:  # pragma: no cover
    from .context import SparkerContext

__all__ = ["DAGScheduler", "StageInfo", "StagePlacement", "JobFailed"]

#: task attempts before a job is failed
MAX_TASK_FAILURES = 4
#: stage resubmissions before a job is failed
MAX_STAGE_ATTEMPTS = 4


class JobFailed(Exception):
    """The job could not complete within the retry budget."""


@dataclass
class StageInfo:
    """One executed stage, recorded for tests and the benchmark harness."""

    stage_id: int
    kind: str  # "shuffle_map" | "result" | "reduced_result"
    rdd_name: str
    num_tasks: int
    attempt: int
    submitted_at: float
    finished_at: Optional[float] = field(default=None)
    #: engine job the stage ran for (contexts shared by several tenants
    #: interleave their stages in ``stage_log``)
    job_id: int = -1

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    @property
    def duration(self) -> Optional[float]:
        """Wall time of the stage, or ``None`` while still running.

        A stage interrupted mid-flight (driver crash, aborted run) never
        closes; ``None`` forces callers to handle that case instead of
        silently propagating NaN through totals.
        """
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


class StagePlacement:
    """Where the first attempt of each task of one stage runs.

    Made once per stage by :meth:`DAGScheduler.place_stage`. Every placed
    task holds one *claim* in ``DAGScheduler.claims`` on the executor its
    current attempt runs on, from the decision until its attempt loop
    ends; the claims are the load every later stage is placed against.
    """

    __slots__ = ("executors", "_claims", "_held")

    def __init__(self, executors: Sequence[Executor],
                 claims: Counter[int]):
        #: by position in the stage's partition list; empty when nothing
        #: could be placed (each attempt loop then asks the picker itself)
        self.executors = tuple(executors)
        self._claims = claims
        #: position -> id of the executor its claim is on
        self._held = dict(enumerate(e.executor_id for e in self.executors))
        claims.update(self._held.values())

    def move(self, position: int, executor: Executor) -> None:
        """Carry ``position``'s claim to the executor a retry runs on."""
        if position in self._held:
            self._claims[self._held[position]] -= 1
            self._held[position] = executor.executor_id
            self._claims[executor.executor_id] += 1

    def release(self, position: int) -> None:
        """Give back ``position``'s claim (idempotent)."""
        if position in self._held:
            self._claims[self._held.pop(position)] -= 1

    def release_all(self) -> None:
        for position in tuple(self._held):
            self.release(position)


class DAGScheduler:
    """Builds and runs the stage graph for each job."""

    def __init__(self, sc: "SparkerContext"):
        self.sc = sc
        self._next_stage_id = 0
        #: every executed stage, in completion order
        self.stage_log: List[StageInfo] = []
        #: executor id -> the tasks placed there whose attempt loop has
        #: not ended: the load :meth:`place_stage` balances the next gang
        #: against
        self.claims: Counter[int] = Counter()

    # ------------------------------------------------------------------- jobs
    def run_job(self, rdd: RDD, func: Callable[[int, list, Any], Any],
                partitions: Optional[Sequence[int]] = None, *,
                job_id: int, pool: Optional[str] = None,
                parent_span: int = -1) -> Generator:
        """Process body: run a job, returning per-partition results.

        ``job_id``/``pool``/``parent_span`` are captured by the
        submitting driver thread (see :meth:`SparkerContext.run_job`): this
        generator body executes on whichever thread holds the reactor's
        baton, so any per-submitter state must arrive as explicit
        arguments rather than be read from thread-local scope here.
        """
        sc = self.sc
        parts = list(partitions if partitions is not None
                     else range(rdd.num_partitions()))
        self._job_start(job_id, "result", rdd, len(parts), parent_span)
        yield sc.env.timeout(sc.cluster.config.driver_job_overhead)
        for attempt in range(MAX_STAGE_ATTEMPTS):
            yield from self._ensure_shuffles(rdd, job_id, pool)
            stage_id = self._new_stage_id()
            info = self._open_stage(stage_id, "result", rdd, len(parts),
                                    attempt, job_id)

            def factory(partition: int, task_attempt: int) -> Task:
                return ResultTask(stage_id, attempt, rdd, partition,
                                  task_attempt, func)

            try:
                raw = yield from self._run_tasks(rdd, parts, factory,
                                                 retry_tasks=True, pool=pool)
            except FetchFailed:
                self._close_stage(info, job_id)
                continue  # parent stage will be resubmitted
            self._close_stage(info, job_id)
            results: Dict[int, Any] = {}
            # Task results deserialize concurrently on the driver's
            # result-getter pool (4 threads in Spark).
            desers = {
                partition: sc.env.process(sc.driver_fetch_work(
                    sc.serde.deser_time_bytes(nbytes)))
                for partition, (_value, nbytes) in raw.items()
            }
            for partition, (value, _nbytes) in raw.items():
                yield desers[partition]
                results[partition] = value
            self._job_end(job_id, "result", succeeded=True)
            return [results[p] for p in parts]
        self._job_end(job_id, "result", succeeded=False)
        raise JobFailed(f"result stage of RDD {rdd.id} kept losing parents")

    def run_reduced_job(self, rdd: RDD,
                        func: Callable[[int, list, Any], Any],
                        reduce_op: Callable[[Any, Any], Any],
                        job_id: int,
                        partitions: Optional[Sequence[int]] = None,
                        detail: bool = False,
                        on_merged: Optional[Callable[
                            [int, int, Tuple[int, int]], None]] = None,
                        pool: Optional[str] = None,
                        ordered: bool = False,
                        parent_span: int = -1,
                        placement: Optional[StagePlacement] = None
                        ) -> Generator:
        """Process body: run an IMM reduced-result stage (paper §4.3).

        Returns ``[(executor_id, object_id), ...]`` — one entry per executor
        that holds a merged aggregator. Any task failure clears the shared
        objects and resubmits the entire stage.

        ``partitions`` restricts the stage to a subset (recovery re-runs
        only a dead executor's lost partitions); with ``detail`` the return
        value is ``(holders, contributions)`` where ``contributions`` maps
        each holding executor to the sorted partitions merged into it —
        the lineage record recovery needs to recompute a lost partial.

        ``on_merged`` threads the partition-completion hook onto every
        :class:`~repro.rdd.tasks.ReducedResultTask` of the stage (see
        that class) — the pipelined collective path uses it to learn,
        in virtual time, when each executor's aggregator is complete.

        ``ordered`` selects the service concurrency mode: task partials
        are deposited per partition and folded in sorted partition order
        after the wave (same per-merge cost formula), so the merged value
        does not depend on cross-job completion-order jitter. Incompatible
        with ``on_merged`` — the pipelined path needs arrival-order
        streaming.

        ``placement`` is a decision the caller already took with
        :meth:`place_stage` (the pipelined path builds its ring over it
        before the stage runs): the first stage attempt runs on it. A
        caller that hands one in releases it when this process ends, in
        case it ended before the stage ran.
        """
        sc = self.sc
        if ordered and on_merged is not None:
            raise ValueError(
                "ordered IMM defers merging to stage end; the pipelined "
                "path's on_merged hook requires arrival-order merges")
        parts = list(partitions if partitions is not None
                     else range(rdd.num_partitions()))
        self._job_start(job_id, "reduced_result", rdd, len(parts),
                        parent_span)
        yield sc.env.timeout(sc.cluster.config.driver_job_overhead)
        stage_id = self._new_stage_id()
        object_id = (job_id, stage_id)
        for attempt in range(MAX_STAGE_ATTEMPTS):
            yield from self._ensure_shuffles(rdd, job_id, pool)
            info = self._open_stage(stage_id, "reduced_result", rdd,
                                    len(parts), attempt, job_id)

            def factory(partition: int, task_attempt: int,
                        _attempt: int = attempt) -> Task:
                return ReducedResultTask(stage_id, _attempt, rdd, partition,
                                         task_attempt, func, reduce_op,
                                         object_id, on_merged=on_merged,
                                         ordered=ordered)

            # a resubmitted stage decides afresh
            placed, placement = placement, None
            try:
                raw = yield from self._run_tasks(rdd, parts, factory,
                                                 retry_tasks=False,
                                                 pool=pool, placement=placed)
                if ordered:
                    # Deterministic deferred merge: every holding executor
                    # folds its deposited partials in sorted partition
                    # order, concurrently across executors, inside the
                    # stage window (so stage duration includes the merge
                    # cost the arrival-order path pays per task).
                    folds = [
                        sc.env.process(
                            sc.executor_by_id(eid).object_manager
                            .fold_deposits(object_id, attempt, reduce_op),
                            name=f"imm-fold:e{eid}")
                        for eid in sorted({e for e, _ in raw.values()})
                    ]
                    try:
                        for fold in folds:
                            yield fold
                    except BaseException:
                        for fold in folds:
                            if fold.is_alive:
                                fold.interrupt("stage aborted")
                        raise
            except FetchFailed:
                self._cleanup_objects(object_id)
                self._close_stage(info, job_id)
                continue
            except (Interrupt, JobFailed, SimulationError):
                # Not task failures: the driver is being torn down, a
                # nested stage exhausted its budget, or the kernel itself
                # broke. Resubmitting would mask the real problem.
                raise
            except Exception:
                # IMM semantics: the shared value may be partially merged;
                # clean up the whole stage and resubmit it (paper §3.2).
                # TaskKilled/ExecutorLost land here with every other task
                # failure — one handler, one policy.
                self._cleanup_objects(object_id)
                self._close_stage(info, job_id)
                continue
            self._close_stage(info, job_id)
            holders: List[Tuple[int, Tuple[int, int]]] = []
            contributions: Dict[int, List[int]] = {}
            seen: Set[int] = set()
            for partition, (executor_id, obj_id) in sorted(raw.items()):
                if executor_id not in seen:
                    seen.add(executor_id)
                    holders.append((executor_id, obj_id))
                contributions.setdefault(executor_id, []).append(partition)
            self._job_end(job_id, "reduced_result", succeeded=True)
            if detail:
                return holders, contributions
            return holders
        self._job_end(job_id, "reduced_result", succeeded=False)
        raise JobFailed(
            f"reduced-result stage of RDD {rdd.id} failed "
            f"{MAX_STAGE_ATTEMPTS} times")

    def _cleanup_objects(self, object_id: Tuple[int, int]) -> None:
        for executor in self.sc.executors:
            executor.object_manager.clear(object_id)

    # ------------------------------------------------------------ map stages
    def _ensure_shuffles(self, rdd: RDD, job_id: int,
                         pool: Optional[str] = None) -> Generator:
        """Run map stages for every incomplete shuffle below ``rdd``."""
        for dep in self._shuffle_deps_topo(rdd):
            if not self.sc.map_output_tracker.is_complete(dep.shuffle_id):
                yield from self._run_map_stage(dep, job_id, pool)

    @staticmethod
    def _shuffle_deps_topo(rdd: RDD) -> List[ShuffleDependency]:
        order: List[ShuffleDependency] = []
        seen: Set[int] = set()

        def visit(r: RDD) -> None:
            if r.id in seen:
                return
            seen.add(r.id)
            for dep in r.deps:
                visit(dep.rdd)
                if isinstance(dep, ShuffleDependency):
                    order.append(dep)

        visit(rdd)
        return order

    def _run_map_stage(self, dep: ShuffleDependency, job_id: int,
                       pool: Optional[str] = None) -> Generator:
        sc = self.sc
        tracker = sc.map_output_tracker
        for attempt in range(MAX_STAGE_ATTEMPTS):
            missing = tracker.missing_maps(dep.shuffle_id)
            if not missing:
                return
            stage_id = self._new_stage_id()
            info = self._open_stage(stage_id, "shuffle_map", dep.rdd,
                                    len(missing), attempt, job_id)

            def factory(partition: int, task_attempt: int,
                        _attempt: int = attempt) -> Task:
                return ShuffleMapTask(stage_id, _attempt, dep.rdd, partition,
                                      task_attempt, dep)

            try:
                raw = yield from self._run_tasks(dep.rdd, missing, factory,
                                                 retry_tasks=True, pool=pool)
            except FetchFailed:
                self._close_stage(info, job_id)
                # A grandparent shuffle lost outputs; rebuild it first.
                yield from self._ensure_shuffles(dep.rdd, job_id, pool)
                continue
            self._close_stage(info, job_id)
            for partition, status in raw.items():
                tracker.register_map_output(dep.shuffle_id, partition, status)
            if not tracker.missing_maps(dep.shuffle_id):
                return
        raise JobFailed(f"map stage for shuffle {dep.shuffle_id} kept failing")

    # ------------------------------------------------------------- task waves
    def _run_tasks(self, rdd: RDD, partitions: Sequence[int],
                   task_factory: Callable[[int, int], Task],
                   retry_tasks: bool,
                   pool: Optional[str] = None,
                   placement: Optional[StagePlacement] = None
                   ) -> Generator:
        """Run one task per partition; returns ``{partition: output}``.

        First attempts run where ``placement`` says (:meth:`place_stage`,
        decided here unless the caller already did); its claims are all
        released by the time this returns or raises.

        With ``retry_tasks`` each task retries independently (Spark's normal
        path); without it the first failure aborts the whole wave after
        interrupting its peers (IMM semantics).

        When ``sc.speculation`` is armed and the wave retries tasks
        independently, a straggler monitor runs alongside the attempt
        loops: attempts running far past the median completed duration
        are cloned onto healthy executors, and a :class:`CommitGate`
        threaded through every task guarantees exactly one copy commits
        (IMM waves are excluded — their shared-mutable merge breaks the
        task independence duplicate attempts rely on).
        """
        sc = self.sc
        env = sc.env
        alive = [e for e in sc.executors if e.alive]
        if not alive:
            raise ExecutorLost("no alive executors in the cluster")

        policy = sc.speculation
        wave: Optional[SpeculationWave] = None
        monitor = None
        factory = task_factory
        if pool is not None:
            # Stamp the submitting job's pool on every task of the wave
            # (first attempts, retries, speculative clones alike) so the
            # FAIR arbiter can bill slot time to the right tenant.
            def factory(partition: int, task_attempt: int,
                        _factory=task_factory) -> Task:
                task = _factory(partition, task_attempt)
                task.pool = pool
                return task

            task_factory = factory
        if (policy is not None and retry_tasks
                and len(partitions) >= policy.min_tasks):
            gate = CommitGate()
            wave = SpeculationWave(env, total=len(partitions))

            def factory(partition: int, task_attempt: int,
                        _factory=task_factory, _wave=wave,
                        _gate=gate) -> Task:
                task = _factory(partition, task_attempt)
                task.commit_gate = _gate
                _wave.stage_id = task.stage_id
                return task

        if placement is not None and not all(
                executor.alive for executor in placement.executors):
            # decided before an executor died: decide again
            placement.release_all()
            placement = None
        if placement is None:
            try:
                placement = self.place_stage(rdd, partitions)
            except ExecutorLost:
                # a task pinned to a dead executor: nothing is claimed and
                # its attempt loop raises the same where it always did
                placement = StagePlacement((), self.claims)
        try:
            host_pool = sc.host_pool
            if host_pool is not None and host_pool.enabled:
                # Batch the stage's provably-pure task bodies onto the host
                # pool before spawning attempt loops; executors claim the
                # memoized results instead of re-running the compute.
                # Consumes no virtual time and misses fall back to inline
                # execution.
                host_pool.precompute(sc, partitions, factory,
                                     placement.executors)

            loops = [
                env.process(
                    self._attempt_loop(rdd, partition, position, factory,
                                       retry_tasks, wave, placement),
                    name=f"attempts:p{partition}")
                for position, partition in enumerate(partitions)
            ]
            if wave is not None:
                monitor = env.process(
                    self._speculation_monitor(rdd, wave, policy, factory),
                    name="speculation-monitor")
            results: Dict[int, Any] = {}
            failure: Optional[BaseException] = None
            for loop in loops:
                if failure is None:
                    try:
                        partition, output = yield loop
                        results[partition] = output
                    except BaseException as exc:  # noqa: BLE001
                        failure = exc
                        for other in loops:
                            if other.is_alive:
                                other.interrupt("stage aborted")
                else:
                    try:
                        yield loop
                    except BaseException:  # noqa: BLE001 - already aborting
                        pass
        finally:
            # each loop gave its claim back as it ended; this covers the
            # ones that never started
            placement.release_all()
        if monitor is not None and monitor.is_alive:
            monitor.interrupt("wave complete")
        if wave is not None:
            for shepherd in wave.shepherds:
                if shepherd.is_alive:
                    shepherd.interrupt("wave complete")
        if failure is not None:
            raise failure
        return results

    def _attempt_loop(self, rdd: RDD, partition: int, position: int,
                      task_factory: Callable[[int, int], Task],
                      retry_tasks: bool, wave: Optional[SpeculationWave],
                      placement: StagePlacement) -> Generator:
        sc = self.sc
        health = sc.health
        tried: Set[int] = set()
        current = None
        failures = 0
        placed = placement.executors
        try:
            while True:
                # the stage's one decision for the first attempt; retries
                # fall back to the per-attempt picker, and the claim
                # follows them
                if placed and not failures:
                    executor = placed[position]
                else:
                    executor = self.pick_executor(rdd, partition, position,
                                                  tried)
                    placement.move(position, executor)
                task = task_factory(partition, failures)
                current = executor.submit(task)
                if wave is not None:
                    wave.task_started(partition, executor.executor_id,
                                      current)
                try:
                    output = yield current
                    if wave is not None:
                        wave.task_finished(partition)
                    health.record_success(executor.executor_id)
                    return partition, output
                except FetchFailed:
                    raise
                except (Interrupt, JobFailed, SimulationError):
                    # Abort/teardown and scheduler-level failures are not
                    # retryable task outcomes; let them surface untouched.
                    raise
                except SpeculationLost:
                    # A speculative clone claimed the commit while this
                    # attempt was finishing. Normally its result stands;
                    # if the clone dies mid-commit the claim is released
                    # and this loop retries the task itself.
                    wave.task_stopped(partition)
                    committed = yield from wave.await_commit(partition)
                    if committed is not BACKUP_FAILED:
                        return partition, committed
                    failures += 1
                    if not retry_tasks or failures >= MAX_TASK_FAILURES:
                        raise
                except Exception:
                    # TaskKilled, ExecutorLost and every other task-level
                    # failure: same retry budget, same policy.
                    if wave is not None:
                        wave.task_stopped(partition)
                        if partition in wave.results:
                            # Killed because the clone already committed;
                            # hand back its result, not a failure.
                            return partition, wave.results[partition]
                    health.record_failure(executor.executor_id)
                    failures += 1
                    tried.add(executor.executor_id)
                    if not retry_tasks or failures >= MAX_TASK_FAILURES:
                        raise
                    delay = health.retry_delay(failures)
                    if delay > 0:
                        yield sc.env.timeout(delay)
        except Interrupt:
            if current is not None and current.is_alive:
                current.interrupt("stage aborted")
            raise
        finally:
            placement.release(position)

    def place_stage(self, rdd: RDD, partitions: Sequence[int]
                    ) -> StagePlacement:
        """Decide, once, where a stage's first attempts run.

        The *canonical* placement is :meth:`pick_executor`'s answer per
        partition — what the same job gets alone on a fresh context. The
        stage runs on it or on a *translation* of it: every executor id
        moved by the same offset, every target on its source's node, alive
        and un-quarantined, none off the executor list. A translation keeps
        each rank on the same node, the same partitions together and the
        executors in the same order, so a job's merged values, ring and
        virtual time do not depend on which one it got (DESIGN §16,
        *Placement*). Among them the gang lands where its tasks wait for
        the fewest slots, counting every task any stage has claimed, of
        whichever job or tenant; ties go to the executors that already
        hold the blocks, then to the smallest offset — so a lone job
        places canonically. Stages with pinned tasks are never moved.
        A task landing where its block is not cached rebuilds it there
        through ``RDD.iterator``.
        """
        sc = self.sc
        canonical = [self.pick_executor(rdd, partition, position)
                     for position, partition in enumerate(partitions)]
        ids = [executor.executor_id for executor in canonical]
        shifts = range(-min(ids), len(sc.executors) - max(ids)) if ids else ()
        if len(shifts) < 2 or any(rdd.pinned_executor(partition) is not None
                                  for partition in partitions):
            return StagePlacement(canonical, self.claims)
        holders = [rdd.preferred_executors(partition)
                   for partition in partitions]
        best = min(filter(None, (
            self._translation(canonical, shift, holders)
            for shift in shifts)))
        return StagePlacement(best[-1], self.claims)

    def _translation(self, canonical: List[Executor], shift: int,
                     holders: List[List[int]]
                     ) -> Optional[Tuple[int, int, int, int, List[Executor]]]:
        """``(slot waits, blocks to build, |shift|, shift, executors)`` of
        the canonical placement moved by ``shift`` executor ids, or None
        when that is not a legal translation."""
        sc = self.sc
        targets = canonical
        if shift:
            targets = [sc.executor_by_id(executor.executor_id + shift)
                       for executor in canonical]
            available = sc.health.is_available
            for source, target in zip(canonical, targets):
                if (target.node is not source.node
                        or not available(target.executor_id)):
                    return None
        claims = self.claims
        depth: Dict[int, int] = {}
        waits = 0
        for target in targets:
            # the task's place in the executor's line: every claimed task
            # of other stages, then this gang's earlier tasks
            eid = target.executor_id
            depth[eid] = depth.get(eid, claims[eid]) + 1
            waits += max(0, depth[eid] - target.slot.cores)
        to_build = sum(target.executor_id not in held
                       for target, held in zip(targets, holders))
        return waits, to_build, abs(shift), shift, targets

    def pick_executor(self, rdd: RDD, partition: int, position: int,
                      tried: Collection[int] = ()) -> Executor:
        """The per-attempt policy: where ``partition`` runs next, ``tried``
        being the executors earlier attempts failed on. With none tried it
        is the canonical placement :meth:`place_stage` starts from; retries
        and speculation backups come here directly."""
        sc = self.sc
        health = sc.health
        pinned = rdd.pinned_executor(partition)
        if pinned is not None:
            executor = sc.executor_by_id(pinned)
            if not executor.alive:
                raise ExecutorLost(
                    f"task pinned to dead executor {pinned}")
            return executor
        for executor_id in rdd.preferred_executors(partition):
            executor = sc.executor_by_id(executor_id)
            if (executor.alive and executor_id not in tried
                    and not health.is_quarantined(executor_id)):
                return executor
        alive = [e for e in sc.executors if e.alive]
        if not alive:
            raise ExecutorLost("no alive executors in the cluster")
        # Quarantined executors leave the pool while healthy peers exist;
        # with no quarantines this is exactly the seed scheduler's choice.
        healthy = [e for e in alive
                   if not health.is_quarantined(e.executor_id)]
        pool_base = healthy or alive
        fresh = [e for e in pool_base if e.executor_id not in tried]
        pool = fresh or pool_base
        return pool[position % len(pool)]

    # ---------------------------------------------------------- speculation
    def _speculation_monitor(self, rdd: RDD, wave: SpeculationWave,
                             policy, task_factory) -> Generator:
        """Process body: periodically clone straggling attempts."""
        sc = self.sc
        env = sc.env
        try:
            while True:
                yield env.timeout(policy.interval)
                threshold = wave.threshold(policy)
                if threshold is None:
                    continue
                now = env.now
                for partition in sorted(wave.running):
                    if partition in wave.speculated:
                        continue
                    started, executor_id, _proc = wave.running[partition]
                    elapsed = now - started
                    if elapsed <= threshold:
                        continue
                    backup = self._pick_backup(rdd, partition, executor_id)
                    if backup is None:
                        continue
                    wave.speculated.add(partition)
                    sc.health.record_straggle(executor_id)
                    attempt = wave.next_backup_attempt()
                    self._emit_speculative(
                        "launched", wave.stage_id, partition, executor_id,
                        backup.executor_id, attempt, threshold, elapsed)
                    wave.shepherds.append(env.process(
                        self._backup_shepherd(wave, task_factory, partition,
                                              backup, attempt, executor_id),
                        name=f"speculate:p{partition}"))
        except Interrupt:
            pass

    def _pick_backup(self, rdd: RDD, partition: int,
                     busy_executor_id: int) -> Optional[Executor]:
        """Healthiest idle executor for a clone, or None if there is none.

        Pinned tasks never speculate (their placement is the contract);
        quarantined executors are skipped. The total order (score, live
        tasks, id) makes the choice deterministic.
        """
        sc = self.sc
        if rdd.pinned_executor(partition) is not None:
            return None
        health = sc.health
        candidates = [
            e for e in sc.executors
            if e.alive and e.executor_id != busy_executor_id
            and not health.is_quarantined(e.executor_id)
        ]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda e: (health.score(e.executor_id),
                                  len(e._running), e.executor_id))

    def _backup_shepherd(self, wave: SpeculationWave, task_factory,
                         partition: int, executor: Executor, attempt: int,
                         original_executor_id: int) -> Generator:
        """Process body: run one speculative clone and settle the race."""
        sc = self.sc
        task = task_factory(partition, attempt)
        proc = executor.submit(task)
        try:
            output = yield proc
        except Interrupt:
            # Wave teardown: the race was already settled without us.
            if proc.is_alive:
                proc.interrupt("wave complete")
            return
        except SpeculationLost:
            self._emit_speculative(
                "original_won", wave.stage_id, partition,
                original_executor_id, executor.executor_id, attempt)
            return
        except Exception:
            sc.health.record_failure(executor.executor_id)
            self._emit_speculative(
                "backup_failed", wave.stage_id, partition,
                original_executor_id, executor.executor_id, attempt)
            # If the clone died holding the claim it was released in the
            # executor; wake a waiting original so it retries.
            wave.resolve(partition, BACKUP_FAILED)
            return
        wave.results[partition] = output
        sc.health.record_success(executor.executor_id)
        self._emit_speculative(
            "speculative_won", wave.stage_id, partition,
            original_executor_id, executor.executor_id, attempt)
        wave.resolve(partition, output)
        entry = wave.running.get(partition)
        if entry is not None and entry[2].is_alive:
            entry[2].interrupt("lost speculation race")

    def _emit_speculative(self, action: str, stage_id: int, partition: int,
                          executor_id: int, backup_executor_id: int,
                          attempt: int, threshold: float = 0.0,
                          elapsed: float = 0.0) -> None:
        bus = self.sc.event_bus
        if bus.active:
            bus.emit(SpeculativeAttempt.fast(
                time=self.sc.env.now, action=action, stage_id=stage_id,
                partition=partition, executor_id=executor_id,
                backup_executor_id=backup_executor_id, attempt=attempt,
                threshold=threshold, elapsed=elapsed))

    # ------------------------------------------------------------ bookkeeping
    def _new_stage_id(self) -> int:
        stage_id = self._next_stage_id
        self._next_stage_id += 1
        return stage_id

    def _open_stage(self, stage_id: int, kind: str, rdd: RDD,
                    num_tasks: int, attempt: int, job_id: int) -> StageInfo:
        info = StageInfo(stage_id=stage_id, kind=kind, rdd_name=rdd.name,
                         num_tasks=num_tasks, attempt=attempt,
                         submitted_at=self.sc.env.now, job_id=job_id)
        self.stage_log.append(info)
        bus = self.sc.event_bus
        if bus.active:
            tracer = bus.tracer
            span = tracer.open_stage(stage_id, attempt, job_id)
            bus.emit(StageSubmitted.fast(
                time=info.submitted_at, stage_id=stage_id,
                attempt=attempt, stage_kind=kind, rdd_name=info.rdd_name,
                num_tasks=num_tasks, job_id=job_id,
                span_id=span, parent_span_id=tracer.job_span(job_id)))
        return info

    def _close_stage(self, info: StageInfo, job_id: int) -> None:
        info.finished_at = self.sc.env.now
        bus = self.sc.event_bus
        if bus.active:
            tracer = bus.tracer
            bus.emit(StageCompleted.fast(
                time=info.finished_at, stage_id=info.stage_id,
                attempt=info.attempt, stage_kind=info.kind,
                rdd_name=info.rdd_name, num_tasks=info.num_tasks,
                job_id=job_id, began=info.submitted_at,
                span_id=tracer.close_stage(info.stage_id, info.attempt),
                parent_span_id=tracer.job_span(job_id)))

    def _job_start(self, job_id: int, job_kind: str, rdd: RDD,
                   num_partitions: int, parent_span: int) -> None:
        """Emit JobStart. ``parent_span`` was captured on the submitting
        thread (the driver parent stack is per-submitter): this runs on
        whichever thread drives the kernel, whose stack need not be the
        submitter's."""
        bus = self.sc.event_bus
        if bus.active:
            tracer = bus.tracer
            bus.emit(JobStart.fast(time=self.sc.env.now, job_id=job_id,
                                   job_kind=job_kind, rdd_name=rdd.name,
                                   num_partitions=num_partitions,
                                   span_id=tracer.open_job(job_id),
                                   parent_span_id=parent_span))

    def _job_end(self, job_id: int, job_kind: str, succeeded: bool) -> None:
        bus = self.sc.event_bus
        if bus.active:
            bus.emit(JobEnd.fast(time=self.sc.env.now, job_id=job_id,
                                 job_kind=job_kind, succeeded=succeeded,
                                 span_id=bus.tracer.close_job(job_id)))
