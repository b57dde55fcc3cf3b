"""In-memory merge (IMM): the mutable object manager (paper §3.2, §4.3).

Under vanilla Spark every task serializes its result immediately and the
driver fetches it — for ML aggregators that means ``executor_cores``
serializations of a potentially huge object per executor per iteration.
IMM instead merges task results *within the executor, in memory*: tasks
update a shared mutable value under a lock, and only the executor's single
merged aggregator ever gets serialized (if at all — split aggregation
reduce-scatters it directly).

Failure semantics follow the paper: IMM breaks the independence of tasks,
so a failed task cannot simply be retried — the shared value may hold a
partial merge. The scheduler reacts by clearing the shared object and
resubmitting the whole stage (cheap, because ML iterations are short). A
``stage_attempt`` tag on every merge guards against a zombie task from a
cleaned-up attempt corrupting the restarted stage's value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Tuple

from ..obs import ImmMerge
from ..rdd.costing import cost_of
from ..serde import density_of, representation_of, sim_sizeof
from ..sim import Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..rdd.executor import Executor

__all__ = ["MutableObjectManager", "StaleMergeError", "ObjectId"]

#: identifies a shared merged object: (job_id, stage_id)
ObjectId = Tuple[int, int]


class StaleMergeError(Exception):
    """A task from a cleaned-up stage attempt (or a fenced-off aggregation
    epoch) tried to merge its result."""


class _Entry:
    __slots__ = ("value", "stage_attempt", "lock", "merge_count", "epoch",
                 "deposits")

    def __init__(self, stage_attempt: int, lock: Resource):
        self.value: Any = None
        self.stage_attempt = stage_attempt
        self.lock = lock
        self.merge_count = 0
        #: aggregation epoch; 0 until the object is fenced by recovery
        self.epoch = 0
        #: per-partition pending values of the ordered-merge mode; None
        #: on the classic arrival-order path
        self.deposits: Dict[int, Any] = None


class MutableObjectManager:
    """Executor-local store of task-shared mutable values."""

    def __init__(self, executor: "Executor"):
        self.executor = executor
        self.env = executor.env
        self._entries: Dict[ObjectId, _Entry] = {}

    def _entry(self, object_id: ObjectId, stage_attempt: int) -> _Entry:
        entry = self._entries.get(object_id)
        if entry is None or entry.stage_attempt < stage_attempt:
            entry = _Entry(stage_attempt,
                           Resource(self.env, 1,
                                    name=f"imm:{object_id}"))
            self._entries[object_id] = entry
        return entry

    def _merge_in(self, entry: _Entry, object_id: ObjectId, value: Any,
                  reduce_op: Callable[[Any, Any], Any], lock_wait: float,
                  parent_span: int) -> Generator:
        """Process body: the one in-memory merge, under the caller's guard.
        The first value is adopted; a later one costs a pass over the
        merged result at the platform's merge bandwidth plus ``reduce_op``'s
        :class:`~repro.rdd.costing.Costed` annotation — and no
        serialization, which is the optimization."""
        env = self.env
        merge_began = env.now
        if entry.value is None:
            entry.value = value
        else:
            merged = reduce_op(entry.value, value)
            cost = (sim_sizeof(merged)
                    / self.executor.sc.cluster.config.merge_bandwidth
                    + cost_of(reduce_op, entry.value, value))
            if cost > 0:
                yield env.timeout(cost)
            entry.value = merged
        entry.merge_count += 1
        bus = self.executor.sc.event_bus
        if bus.active:
            job_id, stage_id = object_id
            bus.emit(ImmMerge.fast(
                time=env.now, executor_id=self.executor.executor_id,
                job_id=job_id, stage_id=stage_id,
                merge_index=entry.merge_count - 1,
                nbytes=sim_sizeof(value), lock_wait=lock_wait,
                merge_time=env.now - merge_began,
                representation=representation_of(entry.value),
                density=density_of(entry.value),
                span_id=bus.tracer.new_span(),
                parent_span_id=parent_span))

    def merge(self, object_id: ObjectId, stage_attempt: int, value: Any,
              reduce_op: Callable[[Any, Any], Any],
              parent_span: int = -1) -> Generator:
        """Process body: merge ``value`` into the shared object, under the
        object's lock (see :meth:`_merge_in` for what a merge costs)."""
        entry = self._entry(object_id, stage_attempt)
        if entry.stage_attempt != stage_attempt:
            raise StaleMergeError(
                f"stage attempt {stage_attempt} of {object_id} was cleaned "
                f"up (current: {entry.stage_attempt})")
        if entry.epoch != 0:
            raise StaleMergeError(
                f"{object_id} is fenced at epoch {entry.epoch}; un-epoched "
                f"task merges are stale")
        lock_asked = self.env.now
        yield entry.lock.acquire()
        try:
            # Re-check under the lock: a cleanup may have raced in.
            live = self._entries.get(object_id)
            if live is not entry or entry.stage_attempt != stage_attempt:
                raise StaleMergeError(
                    f"{object_id} attempt {stage_attempt} cleaned up mid-merge")
            if entry.epoch != 0:
                raise StaleMergeError(
                    f"{object_id} was fenced at epoch {entry.epoch} mid-merge")
            yield from self._merge_in(entry, object_id, value, reduce_op,
                                      self.env.now - lock_asked, parent_span)
        finally:
            entry.lock.release()

    # ----------------------------------------------------- ordered merging
    def deposit(self, object_id: ObjectId, stage_attempt: int,
                partition: int, value: Any) -> None:
        """Stash one partition's partial for a deferred ordered fold.

        The ordered-merge mode of the multi-tenant service (DESIGN.md §16):
        instead of folding task results in completion order — which makes
        the float fold sensitive to cross-job timing — tasks deposit their
        partials keyed by partition, and the scheduler folds them in sorted
        partition order at stage end via :meth:`fold_deposits`. Depositing
        consumes no virtual time; the fold charges the same per-merge cost
        formula as :meth:`merge`.
        """
        entry = self._entry(object_id, stage_attempt)
        if entry.stage_attempt != stage_attempt:
            raise StaleMergeError(
                f"stage attempt {stage_attempt} of {object_id} was cleaned "
                f"up (current: {entry.stage_attempt})")
        if entry.epoch != 0:
            raise StaleMergeError(
                f"{object_id} is fenced at epoch {entry.epoch}; ordered "
                f"deposits are stale")
        if entry.deposits is None:
            entry.deposits = {}
        entry.deposits[partition] = value

    def fold_deposits(self, object_id: ObjectId, stage_attempt: int,
                      reduce_op: Callable[[Any, Any], Any],
                      parent_span: int = -1) -> Generator:
        """Process body: fold deposited partials in sorted partition order.

        Deterministic regardless of task completion order: the fold
        sequence is fixed by partition index, so a job's merged aggregator
        is byte-identical whether its tasks ran alone or interleaved with
        other tenants'. Each merge is the arrival-order path's
        (:meth:`_merge_in`), with no lock to wait for.
        """
        entry = self._entries.get(object_id)
        if entry is None or entry.stage_attempt != stage_attempt:
            current = None if entry is None else entry.stage_attempt
            raise StaleMergeError(
                f"fold of {object_id} attempt {stage_attempt} is stale "
                f"(current: {current})")
        deposits, entry.deposits = entry.deposits, None
        for partition in sorted(deposits or ()):
            yield from self._merge_in(entry, object_id, deposits[partition],
                                      reduce_op, 0.0, parent_span)
        return entry.value

    # -------------------------------------------------------- epoch fencing
    def fence(self, object_id: ObjectId, epoch: int) -> None:
        """Advance the object's aggregation epoch, fencing stale merges.

        After a fence, any in-flight or replayed task merge tagged with the
        original stage attempt raises :class:`StaleMergeError` — recovery
        owns the object now and absorbs recomputed partials explicitly via
        :meth:`absorb`. Fencing an unknown object is a no-op (the executor
        may have died and been cleared).
        """
        if epoch <= 0:
            raise ValueError(f"epoch must be positive, got {epoch}")
        entry = self._entries.get(object_id)
        if entry is not None and epoch > entry.epoch:
            entry.epoch = epoch

    def epoch_of(self, object_id: ObjectId) -> int:
        entry = self._entries.get(object_id)
        return 0 if entry is None else entry.epoch

    def absorb(self, object_id: ObjectId, epoch: int, value: Any,
               merge_op: Callable[[Any, Any], Any],
               parent_span: int = -1) -> Generator:
        """Process body: merge a recovery-recomputed partial into a fenced
        object.

        Same lock and merge as :meth:`merge`, but gated on the
        aggregation ``epoch`` instead of the stage attempt: an absorb from
        a superseded recovery round raises :class:`StaleMergeError`.
        """
        entry = self._entries.get(object_id)
        if entry is None or entry.epoch != epoch:
            current = 0 if entry is None else entry.epoch
            raise StaleMergeError(
                f"absorb into {object_id} at epoch {epoch} is stale "
                f"(current: {current})")
        lock_asked = self.env.now
        yield entry.lock.acquire()
        try:
            live = self._entries.get(object_id)
            if live is not entry or entry.epoch != epoch:
                raise StaleMergeError(
                    f"{object_id} epoch {epoch} superseded mid-absorb")
            yield from self._merge_in(entry, object_id, value, merge_op,
                                      self.env.now - lock_asked, parent_span)
        finally:
            entry.lock.release()

    def get(self, object_id: ObjectId) -> Any:
        """The current merged value (None if nothing merged yet)."""
        entry = self._entries.get(object_id)
        return None if entry is None else entry.value

    def replace(self, object_id: ObjectId, value: Any) -> None:
        """Swap the fully-merged value for ``value`` (same object id).

        Used by the opt-in top-k compression step: once an executor's
        last partition has merged, the driver-side orchestration rewrites
        the aggregator with its sparsified form before the collective
        reads it. Replacing an object that never merged is a driver bug
        and raises ``KeyError``.
        """
        entry = self._entries.get(object_id)
        if entry is None or entry.value is None:
            raise KeyError(f"no merged value to replace for {object_id}")
        entry.value = value

    def merge_count(self, object_id: ObjectId) -> int:
        entry = self._entries.get(object_id)
        return 0 if entry is None else entry.merge_count

    def clear(self, object_id: ObjectId) -> None:
        """Drop the shared object (stage cleanup before resubmission)."""
        self._entries.pop(object_id, None)

    def clear_job(self, job_id: int) -> int:
        """Drop every shared object belonging to ``job_id``.

        Lineage cleanup after a cancelled (or abandoned) service job:
        object ids are ``(job_id, stage_id)``, so a cancelled job's
        partially merged aggregators are identifiable without the driver
        tracking individual stages. Returns the number of objects dropped.
        """
        stale = [oid for oid in self._entries if oid[0] == job_id]
        for oid in stale:
            del self._entries[oid]
        return len(stale)

    def clear_all(self) -> None:
        self._entries.clear()
