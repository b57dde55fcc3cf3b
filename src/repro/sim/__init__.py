"""Deterministic discrete-event simulation kernel.

This package is the foundation of the reproduction: the simulated cluster,
network, Spark-like engine, and every benchmark figure run on top of this
kernel. It is a compact generator-coroutine design in the SimPy tradition,
written from scratch so the repository has no dependency beyond NumPy.

Public surface::

    from repro.sim import Environment, Resource
    from repro.sim import all_of, any_of, Interrupt
"""

from .core import EmptySchedule, Environment
from .events import (
    Condition,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    all_of,
    any_of,
)
from .monitor import Counter, Stopwatch
from .resources import Resource

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "Interrupt",
    "SimulationError",
    "all_of",
    "any_of",
    "Resource",
    "Stopwatch",
    "Counter",
]
