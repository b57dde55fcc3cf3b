"""The slot resource: :class:`Resource`.

:class:`Resource` — ``capacity`` identical slots — models the driver's
threads and mutual exclusion (an IMM object's lock). Executor task slots
are granted by the context's task arbiter (:mod:`repro.rdd.fair`). Link
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


class _Request(Event):
    """A request for one slot of :attr:`resource`; it fires when the slot
    is granted. A grant that fires with nobody waiting on it any more
    (an interrupt detached the process that asked) passes the slot on."""

    __slots__ = ("resource",)

    def _run_callbacks(self) -> None:
        if not self.callbacks:
            self.resource.release()
        Event._run_callbacks(self)


class Resource:
    """A counted resource with ``capacity`` interchangeable slots.

    Usage from a process::

        yield resource.acquire()
        try:
            ...  # hold the slot
        finally:
            resource.release()

    A process interrupted while it waits holds nothing afterwards: the
    interrupt detaches it from its request, and a slot granted to a
    request that nobody waits on any more passes on to the next one.
    """

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[_Request] = deque()

    def acquire(self) -> Event:
        """Return an event that fires when a slot has been granted."""
        request = _Request(self.env, name=f"acquire:{self.name}")
        request.resource = self
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            request.succeed(self)
        else:
            self._waiters.append(request)
        return request

    def release(self) -> None:
        """Release one held slot, handing it to the oldest request if
        any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() without acquire() on {self.name!r}")
        if self._waiters:
            # the slot transfers directly to the waiter
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1

    def __repr__(self) -> str:
        return (f"<Resource {self.name!r} {self._in_use}/{self.capacity}"
                f" queued={len(self._waiters)}>")
