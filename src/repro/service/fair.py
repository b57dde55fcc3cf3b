"""FAIR task scheduling: weighted slot arbitration across tenant pools.

Spark's FAIR scheduler interleaves *tasks* of concurrent jobs instead of
running jobs FIFO; pools carry weights so tenants get proportional
cluster shares. Here the unit of arbitration is an executor task slot:
when :attr:`SparkerContext.task_arbiter` is installed, executors route
every slot acquisition through :meth:`FairTaskArbiter.admit` instead of
acquiring from their ``task_slots`` Resource directly.

Invariants (load-bearing — see DESIGN.md §16):

* **The Resource's waiter queue stays empty.** The arbiter *reserves* a
  slot before letting a task call ``task_slots.acquire()``, so the
  acquire always takes the immediate fast path. This matters because a
  process interrupted while queued inside ``Resource.acquire`` leaves a
  dead waiter event behind, and a later ``release()`` would hand the
  slot to that corpse — a permanent slot leak. With the arbiter, waiting
  happens on arbiter tickets, which clean up after interrupts.
* **Grant order is deterministic.** Among queued tickets for an
  executor, the pool with the smallest weighted cluster-wide running
  count wins; ties break on ticket sequence (submission order).
* **Work conservation.** A free, unreserved slot with no queued tickets
  is granted immediately; fairness only arbitrates contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Generator, Optional

from collections import deque

if TYPE_CHECKING:  # pragma: no cover
    from ..rdd.context import SparkerContext
    from ..rdd.executor import Executor
    from ..rdd.tasks import Task

__all__ = ["PoolConfig", "FairTaskArbiter", "DEFAULT_POOL"]

#: pool used for tasks submitted without an explicit pool
DEFAULT_POOL = "default"


@dataclass(frozen=True)
class PoolConfig:
    """Scheduling parameters of one tenant pool.

    ``weight`` scales the pool's slot share under contention (a weight-2
    pool is entitled to twice the running tasks of a weight-1 pool).
    ``max_running`` / ``max_queued`` are *job*-level admission quotas
    enforced by the :class:`~repro.service.server.JobServer`, not here.
    """

    weight: float = 1.0
    max_running: Optional[int] = None
    max_queued: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"pool weight must be positive: {self.weight}")


class _Ticket:
    __slots__ = ("pool", "event", "seq", "granted")

    def __init__(self, pool: str, event, seq: int):
        self.pool = pool
        self.event = event
        self.seq = seq
        self.granted = False


class FairTaskArbiter:
    """Weighted-fair arbitration of executor task slots across pools."""

    def __init__(self, sc: "SparkerContext",
                 pools: Optional[Dict[str, PoolConfig]] = None,
                 default_pool: str = DEFAULT_POOL):
        self.sc = sc
        self.env = sc.env
        self.default_pool = default_pool
        self.pools: Dict[str, PoolConfig] = dict(pools or {})
        self.pools.setdefault(default_pool, PoolConfig())
        #: queued tickets per executor, FIFO by submission
        self._queues: Dict[int, Deque[_Ticket]] = {}
        #: granted-but-not-yet-acquired slots per executor; keeps a
        #: fast-path admit from stealing a slot promised to a ticket
        self._reserved: Dict[int, int] = {}
        #: cluster-wide running task count per pool (the fairness signal)
        self._running: Dict[str, int] = {}
        #: accumulated slot-seconds per pool (the fairness *metric*)
        self._task_seconds: Dict[str, float] = {}
        #: accumulated slot-seconds per executor (the placement metric)
        self.slot_seconds: Dict[int, float] = {}
        self._next_seq = 0

    # ----------------------------------------------------------- plumbing
    def pool_of(self, task: "Task") -> str:
        return task.pool if task.pool is not None else self.default_pool

    def _weight(self, pool: str) -> float:
        config = self.pools.get(pool)
        if config is None:
            # Unknown pools participate at weight 1 rather than failing:
            # the server registers pools eagerly, but raw-context users
            # may stamp novel pool names.
            config = self.pools[pool] = PoolConfig()
        return config.weight

    def _free_slots(self, executor: "Executor") -> int:
        slots = executor.task_slots
        return (slots.capacity - slots.in_use
                - self._reserved.get(executor.executor_id, 0))

    # -------------------------------------------------------------- admit
    def admit(self, executor: "Executor", task: "Task") -> Generator:
        """Process body: wait for and take one slot on ``executor``.

        Yields exactly like ``task_slots.acquire()`` from the caller's
        point of view; on return the slot is held. On interrupt while
        queued, the ticket (and any reservation already granted to it)
        is returned to the arbiter before the interrupt propagates.
        """
        eid = executor.executor_id
        pool = self.pool_of(task)
        queue = self._queues.get(eid)
        if self._free_slots(executor) > 0 and not queue:
            self._reserved[eid] = self._reserved.get(eid, 0) + 1
        else:
            ticket = _Ticket(pool, self.env.event(name=f"fair:{pool}"),
                             self._next_seq)
            self._next_seq += 1
            if queue is None:
                queue = self._queues[eid] = deque()
            queue.append(ticket)
            try:
                yield ticket.event
            except BaseException:
                if ticket.granted:
                    # The reservation this ticket held passes to the
                    # next most deserving ticket (or lapses).
                    self._reserved[eid] -= 1
                    self._dispatch(executor)
                else:
                    queue.remove(ticket)
                raise
        # A reservation is held either way; the acquire is therefore
        # immediate and the Resource's waiter queue stays empty.
        grant = executor.task_slots.acquire()
        assert grant.triggered, "arbiter reservation was not honoured"
        self._reserved[eid] -= 1
        self._running[pool] = self._running.get(pool, 0) + 1

    def released(self, executor: "Executor", task: "Task",
                 seconds: float) -> None:
        """Hook run by the executor right after ``task_slots.release()``."""
        pool = self.pool_of(task)
        self._running[pool] = self._running.get(pool, 0) - 1
        self._task_seconds[pool] = (self._task_seconds.get(pool, 0.0)
                                    + seconds)
        eid = executor.executor_id
        self.slot_seconds[eid] = self.slot_seconds.get(eid, 0.0) + seconds
        self._dispatch(executor)

    def _dispatch(self, executor: "Executor") -> None:
        """Grant the most underserved queued ticket a freed slot."""
        queue = self._queues.get(executor.executor_id)
        if not queue or self._free_slots(executor) <= 0:
            return
        best = min(queue, key=lambda t: (
            self._running.get(t.pool, 0) / self._weight(t.pool), t.seq))
        queue.remove(best)
        best.granted = True
        eid = executor.executor_id
        self._reserved[eid] = self._reserved.get(eid, 0) + 1
        best.event.succeed()

    # ------------------------------------------------------------ metrics
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-pool accounting: running tasks, slot-seconds, weight."""
        pools = set(self.pools) | set(self._running) | set(self._task_seconds)
        return {
            pool: {
                "weight": self._weight(pool),
                "running": self._running.get(pool, 0),
                "task_seconds": self._task_seconds.get(pool, 0.0),
            }
            for pool in sorted(pools)
        }

    def queued(self) -> int:
        """Total tickets currently waiting (queue-depth metric)."""
        return sum(len(q) for q in self._queues.values())

    def __repr__(self) -> str:
        return (f"<FairTaskArbiter pools={sorted(self.pools)} "
                f"queued={self.queued()}>")
