"""Deterministic, seeded fault injection for the simulated engine.

Declare what breaks with a :class:`FaultPlan` (executor crashes at
virtual times, stage boundaries or ring hops; message drops and delays;
stragglers), arm a :class:`FaultController`
against a context, and run the workload — split aggregation detects the
damage (recv timeouts, death listeners, epoch fencing) and recovers per
its :class:`RecoveryPolicy` (lineage recompute of lost partials, ring
rebuild over the survivors, bounded attempts; a spent budget raises
``JobFailed``). Same plan + same seed replays to a byte-identical event
log.
"""

from .controller import FaultController
from .plan import (
    AtRingHop,
    AtStageBoundary,
    AtTime,
    ExecutorCrash,
    Fault,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    RecoveryPolicy,
    Straggler,
    Trigger,
    random_plan,
)

__all__ = [
    "FaultController",
    "FaultPlan",
    "RecoveryPolicy",
    "AtTime",
    "AtStageBoundary",
    "AtRingHop",
    "ExecutorCrash",
    "MessageDrop",
    "MessageDelay",
    "Straggler",
    "Fault",
    "Trigger",
    "random_plan",
]
