"""The slot resource: :class:`Resource`.

:class:`Resource` — ``capacity`` identical slots — models executor task
slots (CPU cores), the driver's threads and any mutual exclusion. Link
and NIC bandwidth are not a resource here: concurrent transfers share it
through the max-min flow solver (:mod:`repro.cluster.flows`).

The wait queue is strict FIFO, which keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Resource"]


class Resource:
    """A counted resource with ``capacity`` interchangeable slots.

    Usage from a process::

        yield resource.acquire()
        try:
            ...  # hold the slot
        finally:
            resource.release()
    """

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    def acquire(self) -> Event:
        """Return an event that fires when a slot has been granted."""
        event = self.env.event(name=f"acquire:{self.name}")
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one held slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() without acquire() on {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)  # slot transfers directly to the waiter
        else:
            self._in_use -= 1

    def __repr__(self) -> str:
        return (f"<Resource {self.name!r} {self._in_use}/{self.capacity}"
                f" queued={len(self._waiters)}>")

