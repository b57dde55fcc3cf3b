"""Executor health: failure/straggle scoring, quarantine, backoff.

Spark pairs its schedulers with node blacklisting (``spark.blacklist.*``,
later "excludeOnFailure"): executors that keep failing or straggling stop
receiving tasks for a while instead of poisoning every wave. This module
is that mechanism at the simulated engine's grain:

* :class:`HealthPolicy` — the knob set: strike weights for failures and
  straggles, the score threshold that quarantines an executor, the
  exponentially-growing quarantine window, and the per-retry backoff
  delay the scheduler applies to repeatedly-failing tasks.
* :class:`ExecutorHealthRegistry` — driver-side bookkeeping owned by
  every :class:`~repro.rdd.context.SparkerContext` (``sc.health``).
  The scheduler reports failures/straggles/successes; placement asks
  :meth:`is_available` before handing a task (or a speculative copy) to
  an executor; the collective cost model asks :meth:`compute_penalty`
  so ``collective="auto"`` prices degraded nodes.

Quarantine follows Spark's blacklist-with-timeout shape plus probation:
crossing ``quarantine_threshold`` removes the executor from placement
for ``base_quarantine * backoff_factor**(k-1)`` virtual seconds (k-th
quarantine, capped at ``max_quarantine``); when the window expires the
executor re-enters placement *on probation* — the first success clears
its record, the next strike re-quarantines it with the longer window.

Zero-perturbation contract: the registry is pure driver-side
bookkeeping. Recording and scoring consume no virtual time and schedule
no simulation events; with the default ``retry_backoff=0.0`` an armed
registry leaves every fault-free run's timing and results bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set

from ..obs import ExecutorHealth

if TYPE_CHECKING:  # pragma: no cover
    from ..rdd.context import SparkerContext

__all__ = ["HealthPolicy", "ExecutorHealthRegistry"]


@dataclass(frozen=True)
class HealthPolicy:
    """How executor strikes score, quarantine and decay.

    ``failure_weight`` / ``straggle_weight`` are the score added per
    failed task and per detected straggle; ``quarantine_threshold`` is
    the score at which the executor leaves placement. The k-th
    quarantine lasts ``base_quarantine * backoff_factor**(k-1)`` virtual
    seconds (at most ``max_quarantine``). ``success_decay`` multiplies
    the score on every successful task (probation successes clear it
    entirely). ``retry_backoff`` is the scheduler's base delay before
    re-attempting a failed task (``retry_backoff * backoff_factor**
    (failures-1)``); the 0.0 default schedules nothing and preserves the
    seed-identical retry timing.
    """

    failure_weight: float = 1.0
    straggle_weight: float = 0.5
    quarantine_threshold: float = 2.0
    base_quarantine: float = 5.0
    backoff_factor: float = 2.0
    max_quarantine: float = 120.0
    success_decay: float = 0.5
    retry_backoff: float = 0.0

    def __post_init__(self) -> None:
        if self.failure_weight < 0 or self.straggle_weight < 0:
            raise ValueError("strike weights must be >= 0")
        if self.quarantine_threshold <= 0:
            raise ValueError(
                f"quarantine_threshold must be positive, "
                f"got {self.quarantine_threshold}")
        if self.base_quarantine <= 0:
            raise ValueError(
                f"base_quarantine must be positive, "
                f"got {self.base_quarantine}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.max_quarantine < self.base_quarantine:
            raise ValueError("max_quarantine must be >= base_quarantine")
        if not 0.0 <= self.success_decay <= 1.0:
            raise ValueError(
                f"success_decay must be in [0, 1], got {self.success_decay}")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}")


class ExecutorHealthRegistry:
    """Per-executor failure/straggle scores with quarantine and probation.

    Owned by the context as ``sc.health``; always constructed, always
    cheap. All state transitions are driven by deterministic virtual
    time, so replays under the same plan and seed reproduce the same
    quarantine decisions.
    """

    def __init__(self, sc: "SparkerContext",
                 policy: Optional[HealthPolicy] = None):
        self.sc = sc
        self.policy = policy or HealthPolicy()
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

    def retry_delay(self, failures: int) -> float:
        """Backoff before re-attempting a task that failed ``failures``
        times; 0.0 under the default policy (no events scheduled)."""
        if self.policy.retry_backoff <= 0 or failures <= 0:
            return 0.0
        return (self.policy.retry_backoff
                * self.policy.backoff_factor ** (failures - 1))

    def compute_penalty(self, executor_id: int) -> float:
        """Cost-model multiplier for this executor's effective compute.

        Combines the live compute scale a straggler window set on the
        executor with the health score, so ``collective="auto"`` prices
        a degraded node's merge bandwidth realistically. 1.0 when
        healthy — auto-tuned predictions are unchanged on clean runs.
        """
        try:
            executor = self.sc.executor_by_id(executor_id)
        except KeyError:
            return 1.0
        scale = max(float(getattr(executor, "compute_scale", 1.0)), 1.0)
        return scale * (1.0 + self.score(executor_id))

    # ------------------------------------------------------------ recording
    def record_failure(self, executor_id: int) -> None:
        """A task attempt on this executor failed."""
        self._strike(executor_id, self.policy.failure_weight, "failure")

    def record_straggle(self, executor_id: int) -> None:
        """This executor ran a task past the speculation threshold."""
        self._strike(executor_id, self.policy.straggle_weight, "straggle")

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
            self._score[executor_id] = score * self.policy.success_decay

    def _strike(self, executor_id: int, weight: float, event: str) -> None:
        self._score[executor_id] = self.score(executor_id) + weight
        self._strikes[executor_id] = self.strikes(executor_id) + 1
        self._probation.discard(executor_id)
        self._emit(executor_id, event)
        if (self._score[executor_id] >= self.policy.quarantine_threshold
                and executor_id not in self._quarantined_until):
            count = self._quarantine_count.get(executor_id, 0) + 1
            self._quarantine_count[executor_id] = count
            window = min(
                self.policy.base_quarantine
                * self.policy.backoff_factor ** (count - 1),
                self.policy.max_quarantine)
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
