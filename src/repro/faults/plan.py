"""Declarative fault plans: what breaks, when, and how hard.

A :class:`FaultPlan` is a seed-stamped, immutable description of every
fault one run will suffer — executor crashes pinned to virtual times,
stage boundaries or ring hops; per-link message drops and delays;
straggling executors. Plans are pure
data: the :class:`~repro.faults.controller.FaultController` interprets
them against a live :class:`~repro.rdd.context.SparkerContext`, so the
same plan object replayed against the same workload and seed produces a
byte-identical event log.

:class:`RecoveryPolicy` is the matching knob set for the survival side:
how long a ring rank waits before declaring its upstream neighbour dead,
and how many times the ring is rebuilt over the survivors before the
aggregation falls back to ``treeAggregate``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple, Union

__all__ = [
    "AtTime",
    "AtStageBoundary",
    "AtRingHop",
    "ExecutorCrash",
    "MessageDrop",
    "MessageDelay",
    "Straggler",
    "Fault",
    "Trigger",
    "FaultPlan",
    "RecoveryPolicy",
    "random_plan",
]


# ---------------------------------------------------------------- triggers
@dataclass(frozen=True)
class AtTime:
    """Fire at an absolute virtual time (seconds)."""

    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"trigger time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class AtStageBoundary:
    """Fire when the ``occurrence``-th matching stage edge is observed.

    ``edge`` is ``"submitted"`` or ``"completed"``; ``stage_kind`` filters
    on the stage flavour (``"reduced_result"`` hits the IMM stage of a
    split aggregation — crashing on its ``completed`` edge kills an
    executor exactly between partial computation and the ring).
    """

    stage_kind: str = "reduced_result"
    edge: str = "completed"
    occurrence: int = 0

    def __post_init__(self) -> None:
        if self.edge not in ("submitted", "completed"):
            raise ValueError(f"edge must be submitted|completed, "
                             f"got {self.edge!r}")
        if self.occurrence < 0:
            raise ValueError(f"occurrence must be >= 0, got {self.occurrence}")


@dataclass(frozen=True)
class AtRingHop:
    """Fire when the ``occurrence``-th :class:`~repro.obs.RingHop` with
    hop index ``hop`` (and, optionally, channel) completes — the mid-ring
    crash point."""

    hop: int
    channel: Optional[Any] = None
    occurrence: int = 0

    def __post_init__(self) -> None:
        if self.hop < 0:
            raise ValueError(f"hop must be >= 0, got {self.hop}")
        if self.occurrence < 0:
            raise ValueError(f"occurrence must be >= 0, got {self.occurrence}")


Trigger = Union[AtTime, AtStageBoundary, AtRingHop]


# ------------------------------------------------------------------ faults
@dataclass(frozen=True)
class ExecutorCrash:
    """Kill one executor (state, caches and IMM objects are lost)."""

    executor_id: int
    trigger: Trigger = field(default_factory=lambda: AtTime(0.0))


@dataclass(frozen=True)
class MessageDrop:
    """Silently lose fabric messages on a link.

    The bytes still cross the wire (the sender's completion fires at the
    normal instant) but the message never reaches the destination
    mailbox — the receiver can only notice through its recv timeout.
    ``src``/``dst`` are ring ranks (-1 matches any); ``channel`` filters
    on the collective channel; the first ``skip`` matching messages pass
    unharmed, then ``count`` are dropped.
    """

    src: int = -1
    dst: int = -1
    channel: Optional[Any] = None
    count: int = 1
    skip: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0, got {self.skip}")


@dataclass(frozen=True)
class MessageDelay:
    """Postpone matching messages' delivery by ``delay`` seconds."""

    delay: float = 0.1
    src: int = -1
    dst: int = -1
    channel: Optional[Any] = None
    count: int = 1
    skip: int = 0

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ValueError(f"delay must be positive, got {self.delay}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0, got {self.skip}")


@dataclass(frozen=True)
class Straggler:
    """Multiply one executor's compute time by ``factor`` for a window.

    ``duration=math.inf`` leaves the executor slow forever.
    """

    executor_id: int
    factor: float = 4.0
    start: float = 0.0
    duration: float = math.inf

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError(f"factor must be positive, got {self.factor}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")


Fault = Union[ExecutorCrash, MessageDrop, MessageDelay, Straggler]

_FAULT_TYPES = (ExecutorCrash, MessageDrop, MessageDelay, Straggler)


# ------------------------------------------------------------------- plans
@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seed-stamped set of faults for one run."""

    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, _FAULT_TYPES):
                raise TypeError(f"not a fault: {fault!r}")


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the engine survives what a plan injects.

    ``recv_timeout`` is each ring hop's failure-detection deadline (virtual
    seconds of upstream silence before the rank raises ``ExecutorLost``);
    ``max_ring_attempts`` bounds the collective attempts of one
    aggregation; once that many failed, it raises ``JobFailed`` naming
    the budget.
    """

    recv_timeout: float = 0.5
    max_ring_attempts: int = 3

    def __post_init__(self) -> None:
        if self.recv_timeout <= 0:
            raise ValueError(
                f"recv_timeout must be positive, got {self.recv_timeout}")
        if self.max_ring_attempts < 1:
            raise ValueError(f"max_ring_attempts must be >= 1, "
                             f"got {self.max_ring_attempts}")


def random_plan(seed: int, executor_ids: Sequence[int], horizon: float,
                n_crashes: int = 1, n_drops: int = 0, n_delays: int = 0,
                max_delay: float = 0.25) -> FaultPlan:
    """A seeded random plan: same arguments -> the identical plan object.

    Crash times are uniform over ``[0, horizon)``; link faults skip a
    random number of early messages so they land at varied ring phases.
    """
    if not executor_ids:
        raise ValueError("need at least one executor id")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    rng = random.Random(seed)
    faults: list = []
    for _ in range(n_crashes):
        faults.append(ExecutorCrash(
            executor_id=rng.choice(list(executor_ids)),
            trigger=AtTime(rng.uniform(0.0, horizon))))
    for _ in range(n_drops):
        faults.append(MessageDrop(skip=rng.randrange(8)))
    for _ in range(n_delays):
        faults.append(MessageDelay(
            delay=rng.uniform(max_delay / 8, max_delay),
            skip=rng.randrange(8)))
    return FaultPlan(tuple(faults), seed=seed)
