"""Executor health: failure/straggle scoring, quarantine, backoff.

Spark pairs its schedulers with node blacklisting (``spark.blacklist.*``,
later "excludeOnFailure"): executors that keep failing or straggling stop
receiving tasks for a while instead of poisoning every wave. This module
is that mechanism at the simulated engine's grain:

* the constants below: strike weights for failures and straggles, the
  score threshold that quarantines an executor, and the
  exponentially-growing quarantine window;
* :class:`ExecutorHealthRegistry` — driver-side bookkeeping owned by
  every :class:`~repro.rdd.context.SparkerContext` (``sc.health``).
  The scheduler reports failures/straggles/successes; placement asks
  :meth:`is_available` before handing a task (or a speculative copy) to
  an executor.

Quarantine follows Spark's blacklist-with-timeout shape plus probation:
crossing :data:`QUARANTINE_THRESHOLD` removes the executor from placement
for ``BASE_QUARANTINE * BACKOFF_FACTOR**(k-1)`` virtual seconds (k-th
quarantine, capped at :data:`MAX_QUARANTINE`); when the window expires the
executor re-enters placement *on probation* — the first success clears
its record, the next strike re-quarantines it with the longer window.

Zero-perturbation contract: the registry is pure driver-side
bookkeeping. Recording and scoring consume no virtual time and schedule
no simulation events, so the registry leaves every fault-free run's
timing and results bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set

from ..obs import ExecutorHealth

if TYPE_CHECKING:  # pragma: no cover
    from ..rdd.context import SparkerContext

__all__ = ["ExecutorHealthRegistry"]

#: score added per failed task attempt and per detected straggle
FAILURE_WEIGHT = 1.0
STRAGGLE_WEIGHT = 0.5
#: the score at which an executor leaves placement
QUARANTINE_THRESHOLD = 2.0
#: the k-th quarantine lasts BASE_QUARANTINE * BACKOFF_FACTOR**(k-1)
#: virtual seconds, at most MAX_QUARANTINE
BASE_QUARANTINE = 5.0
BACKOFF_FACTOR = 2.0
MAX_QUARANTINE = 120.0
#: multiplies the score on every successful task (a probation success
#: clears it entirely)
SUCCESS_DECAY = 0.5


class ExecutorHealthRegistry:
    """Per-executor failure/straggle scores with quarantine and probation.

    Owned by the context as ``sc.health``; always constructed, always
    cheap. All state transitions are driven by deterministic virtual
    time, so replays under the same plan and seed reproduce the same
    quarantine decisions.
    """

    def __init__(self, sc: "SparkerContext"):
        self.sc = sc
        self._score: Dict[int, float] = {}
        self._strikes: Dict[int, int] = {}
        self._quarantined_until: Dict[int, float] = {}
        self._quarantine_count: Dict[int, int] = {}
        self._probation: Set[int] = set()

    # -------------------------------------------------------------- queries
    def score(self, executor_id: int) -> float:
        """Current weighted strike score (0.0 = healthy)."""
        return self._score.get(executor_id, 0.0)

    def strikes(self, executor_id: int) -> int:
        """Total failure + straggle strikes recorded."""
        return self._strikes.get(executor_id, 0)

    def is_quarantined(self, executor_id: int) -> bool:
        """Whether the executor is currently excluded from placement.

        An expired quarantine window transitions the executor to
        probation as a side effect (one ``probation`` health event).
        """
        until = self._quarantined_until.get(executor_id)
        if until is None:
            return False
        if self.sc.env.now < until:
            return True
        del self._quarantined_until[executor_id]
        self._probation.add(executor_id)
        self._emit(executor_id, "probation")
        return False

    def on_probation(self, executor_id: int) -> bool:
        # Resolve any expired quarantine first.
        return (not self.is_quarantined(executor_id)
                and executor_id in self._probation)

    def is_available(self, executor_id: int) -> bool:
        """Alive and not quarantined — eligible for placement."""
        try:
            executor = self.sc.executor_by_id(executor_id)
        except KeyError:
            return False
        return executor.alive and not self.is_quarantined(executor_id)

    # ------------------------------------------------------------ recording
    def record_failure(self, executor_id: int) -> None:
        """A task attempt on this executor failed."""
        self._strike(executor_id, FAILURE_WEIGHT, "failure")

    def record_straggle(self, executor_id: int) -> None:
        """This executor ran a task past the speculation threshold."""
        self._strike(executor_id, STRAGGLE_WEIGHT, "straggle")

    def record_success(self, executor_id: int) -> None:
        """A task attempt completed; decays the score, clears probation."""
        if executor_id in self._probation:
            self._probation.discard(executor_id)
            self._score[executor_id] = 0.0
            self._strikes[executor_id] = 0
            self._emit(executor_id, "cleared")
            return
        score = self._score.get(executor_id, 0.0)
        if score > 0.0:
            self._score[executor_id] = score * SUCCESS_DECAY

    def _strike(self, executor_id: int, weight: float, event: str) -> None:
        self._score[executor_id] = self.score(executor_id) + weight
        self._strikes[executor_id] = self.strikes(executor_id) + 1
        self._probation.discard(executor_id)
        self._emit(executor_id, event)
        if (self._score[executor_id] >= QUARANTINE_THRESHOLD
                and executor_id not in self._quarantined_until):
            count = self._quarantine_count.get(executor_id, 0) + 1
            self._quarantine_count[executor_id] = count
            window = min(BASE_QUARANTINE * BACKOFF_FACTOR ** (count - 1),
                         MAX_QUARANTINE)
            self._quarantined_until[executor_id] = self.sc.env.now + window
            self._emit(executor_id, "quarantined",
                       until=self._quarantined_until[executor_id])

    # ------------------------------------------------------------- plumbing
    def _emit(self, executor_id: int, event: str, until: float = 0.0) -> None:
        bus = self.sc.event_bus
        if bus is not None and bus.active:
            bus.emit(ExecutorHealth.fast(
                time=self.sc.env.now, executor_id=executor_id, status=event,
                score=self.score(executor_id),
                strikes=self.strikes(executor_id), until=until))

    def __repr__(self) -> str:
        quarantined = sorted(
            eid for eid in list(self._quarantined_until)
            if self.is_quarantined(eid))
        return (f"<ExecutorHealthRegistry scores={len(self._score)} "
                f"quarantined={quarantined}>")
