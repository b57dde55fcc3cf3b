"""Causal span allocation for the observability layer.

A *span* is just a deterministic integer id stamped onto emitted events
(``TraceEvent.span_id`` / ``parent_span_id``); the span "tree" is never
materialized at runtime — analyzers rebuild it from the log. Ids are
allocated from a per-bus counter that only advances while the bus is
active, in simulation order, so two identically-seeded traced runs
produce byte-identical logs and an untraced run allocates nothing.

Parent/child rules (documented in DESIGN.md §12):

* job -> stage -> task form the scheduler chain; stages parent to their
  job, tasks to their stage attempt.
* collective decisions (cost estimates / chosen / completed) share one
  collective span; ring & hypercube hops and gather messages parent to
  it; fabric messages inherit the fabric's ``parent_span``.
* IMM merges parent to the merging task's span.
* fault injections open their own root spans; recovery actions parent to
  a *recovery epoch* span opened at first failure detection, and
  recompute jobs launched during recovery parent to that epoch too (via
  the driver parent stack).

The driver parent stack (:meth:`Tracer.push_parent`) is per-submitter:
each thread that runs driver code (the main thread for the classic
blocking API, one worker thread per job under :mod:`repro.service`) gets
its own stack, so concurrent submissions cannot interleave parents.
Driver entry points capture ``current_parent`` on the submitting thread
and pass it explicitly into scheduler process bodies, which execute on
whichever thread holds the reactor's baton — under the service, often
another job's.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

__all__ = ["Tracer", "NO_SPAN"]

#: sentinel for "no span" — events keep their default ids and serialize
#: without span fields.
NO_SPAN = -1


class Tracer:
    """Deterministic span-id allocator with scheduler-keyed registries.

    Owned by an :class:`~repro.obs.EventBus` (``bus.tracer``) so every
    instrumented component that already holds the bus can reach it
    without extra plumbing. All allocation methods return :data:`NO_SPAN`
    while the bus is inactive; the zero-perturbation contract therefore
    extends to span ids — tracing allocates no state unless someone is
    listening.
    """

    def __init__(self, bus) -> None:
        self._bus = bus
        self._next_id = 0
        self._jobs: Dict[int, int] = {}
        self._stages: Dict[Tuple[int, int], int] = {}
        self._collectives: Dict[int, int] = {}
        self._parents = threading.local()

    # ----------------------------------------------------------- allocation
    @property
    def active(self) -> bool:
        return self._bus.active

    def new_span(self, parent: int = NO_SPAN) -> int:
        """Allocate a fresh span id (parent is recorded by the caller on
        the emitted event, not here)."""
        if not self._bus.active:
            return NO_SPAN
        self._next_id += 1
        return self._next_id

    # -------------------------------------------------- driver parent stack
    def _stack(self) -> list:
        stack = getattr(self._parents, "stack", None)
        if stack is None:
            stack = self._parents.stack = []
        return stack

    @property
    def current_parent(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else NO_SPAN

    def push_parent(self, span: int) -> None:
        """Make ``span`` the default parent for driver-side openings
        (jobs, collectives) on this thread until :meth:`pop_parent`."""
        self._stack().append(span)

    def pop_parent(self) -> int:
        stack = self._stack()
        return stack.pop() if stack else NO_SPAN

    # ---------------------------------------------------------------- jobs
    def open_job(self, job_id: int) -> int:
        span = self.new_span()
        if span != NO_SPAN:
            self._jobs[job_id] = span
        return span

    def job_span(self, job_id: int) -> int:
        return self._jobs.get(job_id, NO_SPAN)

    def close_job(self, job_id: int) -> int:
        return self._jobs.pop(job_id, NO_SPAN)

    # -------------------------------------------------------------- stages
    def open_stage(self, stage_id: int, attempt: int, job_id: int) -> int:
        span = self.new_span()
        if span != NO_SPAN:
            self._stages[(stage_id, attempt)] = span
        return span

    def stage_span(self, stage_id: int, attempt: int) -> int:
        return self._stages.get((stage_id, attempt), NO_SPAN)

    def close_stage(self, stage_id: int, attempt: int) -> int:
        return self._stages.pop((stage_id, attempt), NO_SPAN)

    # --------------------------------------------------------- collectives
    def open_collective(self, collective_id: int) -> int:
        span = self.new_span()
        if span != NO_SPAN:
            self._collectives[collective_id] = span
        return span

    def collective_span(self, collective_id: int) -> int:
        return self._collectives.get(collective_id, NO_SPAN)

    def close_collective(self, collective_id: int) -> int:
        return self._collectives.pop(collective_id, NO_SPAN)
