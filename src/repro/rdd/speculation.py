"""Spark-style speculative execution: clone stragglers, fence commits.

Spark's ``spark.speculation`` machinery re-launches slow task attempts on
other executors and lets whichever copy finishes first "win". This module
is that mechanism for the simulated engine, split into the pieces the
:class:`~repro.rdd.scheduler.DAGScheduler` composes per task wave:

* :class:`SpeculationPolicy` — set on a context, it arms the monitor
  (Spark's ``spark.speculation``); the constants below are the values of
  Spark's ``spark.speculation.*`` family: how often the monitor wakes,
  what fraction of the wave must have finished before durations are
  trusted, and the multiple of the median duration past which a running
  attempt counts as a straggler.
* :class:`CommitGate` — the first-completion-wins fence. Every gated
  attempt must :meth:`~CommitGate.claim` its partition before emitting
  output or publishing accumulator updates; exactly one claim per
  partition succeeds, so duplicate attempts can never double-apply side
  effects. A claim is released only if the claiming attempt dies before
  finishing, which re-opens the partition for the surviving copy.
* :class:`SpeculationLost` — raised inside the losing attempt at its
  commit point (before any output is emitted or accumulators publish).
* :class:`SpeculationWave` — per-wave bookkeeping: which attempts run
  where, completed durations for the quantile threshold, and the
  committed results that let a cancelled original hand back its
  duplicate's output.

Determinism: the monitor wakes on fixed virtual-time intervals, scans
partitions in sorted order, and picks backup executors by a total order
(load, executor id) — two runs with the same seed and plan
launch the same clones at the same times and resolve every commit race
identically. Ties at the same instant resolve by the kernel's FIFO event
order, which favours the attempt submitted first (the original).

Zero-perturbation: with ``sc.speculation`` unset (the default) none of
this is constructed and task waves run bit-identically to the seed
scheduler; armed-but-straggler-free waves add only monitor wakeups,
which consume no shared resources and shift no task timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..sim import Event
from ..sim.events import Process

__all__ = [
    "SpeculationPolicy",
    "CommitGate",
    "SpeculationLost",
    "SpeculationWave",
    "BACKUP_FAILED",
    "SPECULATIVE_ATTEMPT_BASE",
]

#: attempt numbers for speculative clones start here, keeping them
#: disjoint from the retry counter the attempt loop uses (< 4)
SPECULATIVE_ATTEMPT_BASE = 100

#: sentinel resolved to waiters when a backup claimed the commit but died
#: before finishing (the claim was released; the original should retry)
BACKUP_FAILED = object()


class SpeculationLost(Exception):
    """This attempt lost the commit race to its duplicate.

    Raised at the attempt's commit point, *before* it emits output or
    publishes accumulator updates — the loser has no observable effect
    beyond the compute time it already spent.
    """


#: the monitor wakes every INTERVAL virtual seconds. Once at least
#: ``max(MIN_TASKS, ceil(QUANTILE * wave_size))`` attempts of the wave have
#: completed, any attempt running longer than MULTIPLIER times the median
#: completed duration is cloned onto the least loaded live executor;
#: MIN_TASKS keeps one-task waves and cold starts from speculating on no
#: evidence
QUANTILE = 0.75
MULTIPLIER = 1.5
INTERVAL = 0.1
MIN_TASKS = 2


@dataclass(frozen=True)
class SpeculationPolicy:
    """Clone slow attempts (Spark's ``spark.speculation``): set
    ``sc.speculation = SpeculationPolicy()`` to arm the monitor; when it
    clones is fixed by :data:`QUANTILE`, :data:`MULTIPLIER`,
    :data:`INTERVAL` and :data:`MIN_TASKS`."""


class CommitGate:
    """First-completion-wins fence over a wave's partitions.

    ``claim`` is idempotent for the holder and exclusive across
    attempts; ``release`` re-opens a partition only if the releasing
    attempt still holds it (a loser's release must not evict the
    winner).
    """

    def __init__(self) -> None:
        self._committed: Dict[int, Tuple[int, int]] = {}

    def claim(self, partition: int, key: Tuple[int, int]) -> bool:
        """Try to commit ``partition`` as attempt ``key``; True if won."""
        held = self._committed.get(partition)
        if held is None:
            self._committed[partition] = key
            return True
        return held == key

    def release(self, partition: int, key: Tuple[int, int]) -> None:
        """Give up a claim (the claiming attempt died mid-commit)."""
        if self._committed.get(partition) == key:
            del self._committed[partition]

    def winner(self, partition: int) -> Optional[Tuple[int, int]]:
        """The ``(executor_id, attempt)`` holding the commit, if any."""
        return self._committed.get(partition)


class SpeculationWave:
    """Bookkeeping for one task wave's straggler monitor."""

    def __init__(self, env, total: int):
        self.env = env
        #: partitions in the wave (denominator of the quantile check)
        self.total = total
        #: stage id, learned from the first task the factory builds
        self.stage_id = -1
        #: partition -> (submit_time, executor_id, task process)
        self.running: Dict[int, Tuple[float, int, Process]] = {}
        #: completed attempt durations, in completion order
        self.durations: List[float] = []
        #: partition -> output committed by a speculative clone
        self.results: Dict[int, Any] = {}
        #: partitions that already have a clone (at most one each)
        self.speculated: Set[int] = set()
        #: shepherd processes watching live clones (wave teardown
        #: interrupts the survivors)
        self.shepherds: List[Process] = []
        self._commit_events: Dict[int, Event] = {}
        self._next_attempt = SPECULATIVE_ATTEMPT_BASE

    # ------------------------------------------------------------ attempts
    def task_started(self, partition: int, executor_id: int,
                     proc: Process) -> None:
        self.running[partition] = (self.env.now, executor_id, proc)

    def task_finished(self, partition: int) -> None:
        entry = self.running.pop(partition, None)
        if entry is not None:
            self.durations.append(self.env.now - entry[0])

    def task_stopped(self, partition: int) -> None:
        """The attempt ended without a countable duration (failed/lost)."""
        self.running.pop(partition, None)

    def next_backup_attempt(self) -> int:
        attempt = self._next_attempt
        self._next_attempt += 1
        return attempt

    # ------------------------------------------------------------ detector
    def threshold(self) -> Optional[float]:
        """Straggler cutoff, or None while the evidence is too thin."""
        need = max(MIN_TASKS, int(math.ceil(QUANTILE * self.total)))
        if len(self.durations) < need or not self.running:
            return None
        return MULTIPLIER * median(self.durations)

    # ------------------------------------------------------------- commits
    def resolve(self, partition: int, value: Any) -> None:
        """Wake an original that lost the commit race (if one waits)."""
        event = self._commit_events.pop(partition, None)
        if event is not None:
            event.succeed(value)

    def await_commit(self, partition: int) -> Generator:
        """Process body: wait for the duplicate's committed outcome.

        Returns the committed output, or :data:`BACKUP_FAILED` if the
        clone died after claiming (its claim was released; the caller
        should retry the task itself).
        """
        if partition in self.results:
            return self.results[partition]
        event = self._commit_events.get(partition)
        if event is None:
            event = Event(self.env, name=f"speculation:p{partition}")
            self._commit_events[partition] = event
        value = yield event
        return value
