"""Task slots: the one way a task waits for and takes an executor slot.

Spark's FAIR scheduler interleaves *tasks* of concurrent jobs instead of
running jobs FIFO; pools carry weights so tenants get proportional
cluster shares, and FIFO is the one-pool case. Here the unit of
arbitration is an executor task slot. Every
:class:`~repro.rdd.context.SparkerContext` owns one
:class:`FairTaskArbiter` (``sc.task_arbiter``), and every executor admits
every task through :meth:`FairTaskArbiter.admit`. A batch context runs
everything in the one default pool, so its tasks take slots in
submission order; a :class:`~repro.service.server.JobServer` registers
its tenant pools on the same arbiter.

Invariants (load-bearing — see DESIGN.md §16):

* **An interrupted waiter holds nothing.** A task interrupted while its
  ticket is queued withdraws the ticket; one interrupted after its grant
  but before it resumed passes the slot on. A stage that interrupts its
  queued siblings and resubmits (IMM, paper §3.2) therefore finds every
  slot free again.
* **Grant order is deterministic.** Among queued tickets for an
  executor, the pool with the smallest weighted cluster-wide running
  count wins; ties break on ticket sequence (submission order). Tickets
  queue FIFO per pool, so a grant compares the pools' heads only.
* **Work conservation.** A free slot with no queued ticket is taken at
  once; fairness only arbitrates contention.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Generator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Event
    from .context import SparkerContext
    from .executor import Executor
    from .tasks import Task

__all__ = ["PoolConfig", "FairTaskArbiter", "DEFAULT_POOL"]

#: pool used for tasks submitted without an explicit pool
DEFAULT_POOL = "default"


@dataclass(frozen=True)
class PoolConfig:
    """Scheduling parameters of one tenant pool.

    ``weight`` scales the pool's slot share under contention (a weight-2
    pool is entitled to twice the running tasks of a weight-1 pool).
    ``max_running`` is a *job*-level admission quota enforced by the
    :class:`~repro.service.server.JobServer`, not here: jobs beyond it
    queue.
    """

    weight: float = 1.0
    max_running: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"pool weight must be positive: {self.weight}")


class _Slots:
    """One executor's task slots: how many are held, and the tickets
    (``(seq, event)``) waiting for one, FIFO per pool."""

    __slots__ = ("capacity", "held", "waiting", "queues")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.held = 0
        #: tickets queued over all pools
        self.waiting = 0
        self.queues: Dict[str, Deque[Tuple[int, "Event"]]] = {}


class FairTaskArbiter:
    """Weighted-fair arbitration of executor task slots across pools."""

    def __init__(self, sc: "SparkerContext"):
        self.env = sc.env
        #: per executor id: its slots held and its queued tickets
        self.slots: Dict[int, _Slots] = {
            e.executor_id: _Slots(e.slot.cores) for e in sc.executors}
        #: cluster-wide running task count per pool (the fairness signal)
        self._running: Dict[str, int] = {}
        #: accumulated slot-seconds per pool (the fairness *metric*)
        self._task_seconds: Dict[str, float] = {}
        #: accumulated slot-seconds per executor (the placement metric)
        self.slot_seconds: Dict[int, float] = {}
        self._next_seq = 0
        self.register_pools(None, DEFAULT_POOL)

    def register_pools(self, pools: Optional[Dict[str, PoolConfig]],
                       default_pool: str) -> None:
        """Set the pools and the pool of a task that names none (a job
        server's, before any task runs)."""
        self.default_pool = default_pool
        self.pools: Dict[str, PoolConfig] = dict(pools or {})
        self.pools.setdefault(default_pool, PoolConfig())

    def _weight(self, pool: str) -> float:
        config = self.pools.get(pool)
        if config is None:
            # Unknown pools participate at weight 1 rather than failing:
            # the server registers pools eagerly, but raw-context users
            # may stamp novel pool names.
            config = self.pools[pool] = PoolConfig()
        return config.weight

    # -------------------------------------------------------------- admit
    def admit(self, executor: "Executor", task: "Task") -> Generator:
        """Process body: wait for and take one slot on ``executor``.

        Yields one event either way, as a FIFO resource would: an
        already-succeeded one when a slot is free and nothing queues
        (taken before the yield), else the ticket's, which
        :meth:`_dispatch` succeeds after taking the slot on the ticket's
        behalf. On interrupt the ticket leaves its queue, or the slot it
        was granted passes on, before the interrupt propagates.
        """
        slots = self.slots[executor.executor_id]
        pool = task.pool if task.pool is not None else self.default_pool
        if slots.held < slots.capacity and not slots.waiting:
            slots.held += 1
            grant = self.env.event(name="slot").succeed()
        else:
            grant = self.env.event(name="fair")
            ticket = (self._next_seq, grant)
            self._next_seq += 1
            queue = slots.queues.get(pool)
            if queue is None:
                queue = slots.queues[pool] = deque()
            queue.append(ticket)
            slots.waiting += 1
        try:
            yield grant
        except BaseException:
            if grant.triggered:
                # granted but never resumed: the slot goes to the next
                # most deserving ticket (or is freed)
                slots.held -= 1
                self._dispatch(slots)
            else:
                queue.remove(ticket)
                slots.waiting -= 1
            raise
        self._running[pool] = self._running.get(pool, 0) + 1

    def released(self, executor: "Executor", task: "Task",
                 seconds: float) -> None:
        """The executor's task ended after holding its slot ``seconds``:
        free the slot and grant it on."""
        pool = task.pool if task.pool is not None else self.default_pool
        self._running[pool] -= 1
        self._task_seconds[pool] = (self._task_seconds.get(pool, 0.0)
                                    + seconds)
        eid = executor.executor_id
        self.slot_seconds[eid] = self.slot_seconds.get(eid, 0.0) + seconds
        slots = self.slots[eid]
        slots.held -= 1
        self._dispatch(slots)

    def _dispatch(self, slots: _Slots) -> None:
        """Grant a free slot to the most underserved pool's oldest
        ticket: the minimum over pools of ``(running / weight, head
        seq)``, which is the minimum over all tickets."""
        if not slots.waiting or slots.held >= slots.capacity:
            return
        best = chosen = None
        for pool, queue in slots.queues.items():
            if queue:
                key = (self._running.get(pool, 0) / self._weight(pool),
                       queue[0][0])
                if best is None or key < best:
                    best, chosen = key, queue
        _seq, grant = chosen.popleft()
        slots.waiting -= 1
        slots.held += 1
        grant.succeed()

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
        return sum(slots.waiting for slots in self.slots.values())

    def __repr__(self) -> str:
        return (f"<FairTaskArbiter pools={sorted(self.pools)} "
                f"queued={self.queued()}>")
