"""Shared-resource primitives: slot resources and token pools.

Two congestion primitives cover everything the simulated cluster needs:

* :class:`Resource` — ``capacity`` identical slots; models executor task
  slots (CPU cores) and any mutual exclusion.
* :class:`CapacityPool` — a divisible pool of floating-point tokens; models
  NIC bandwidth: a transfer acquires ``rate`` tokens for its duration, so
  concurrent transfers share the NIC up to its line rate and queue beyond it.

All wait queues are strict FIFO, which keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Generator

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Resource", "CapacityPool"]


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

    @property
    def available(self) -> int:
        """Number of free slots."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

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

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Process helper: hold one slot for ``duration`` seconds."""
        yield self.acquire()
        try:
            yield self.env.timeout(duration)
        finally:
            self.release()

    def __repr__(self) -> str:
        return (f"<Resource {self.name!r} {self._in_use}/{self.capacity}"
                f" queued={len(self._waiters)}>")


class CapacityPool:
    """A divisible pool of ``capacity`` floating-point tokens.

    Models link/NIC bandwidth: a transfer running at rate ``r`` bytes/s holds
    ``r`` tokens for its duration. When the pool is exhausted further
    requests queue FIFO, which approximates max-min fair sharing with a
    store-and-forward flavour: aggregate throughput through the pool never
    exceeds ``capacity`` and small flows are never starved (FIFO grant
    order).

    A request larger than the pool's total capacity is clamped to the total
    capacity (a single flow may use the whole NIC but not more).
    """

    _EPS = 1e-9

    def __init__(self, env: "Environment", capacity: float, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = float(capacity)
        self._level = float(capacity)
        self._waiters: Deque[tuple] = deque()  # (amount, event)

    @property
    def level(self) -> float:
        """Tokens currently free."""
        return self._level

    @property
    def in_use(self) -> float:
        """Tokens currently held by transfers."""
        return self.capacity - self._level

    @property
    def queue_length(self) -> int:
        """Requests waiting for tokens."""
        return len(self._waiters)

    def acquire(self, amount: float) -> Event:
        """Return an event firing when ``amount`` tokens have been granted.

        The event's value is the amount actually granted (``amount`` clamped
        to the pool capacity); pass it back to :meth:`release`.
        """
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        amount = min(float(amount), self.capacity)
        event = self.env.event(name=f"pool:{self.name}")
        if not self._waiters and self._level + self._EPS >= amount:
            self._level -= amount
            event.succeed(amount)
        else:
            self._waiters.append((amount, event))
        return event

    def release(self, amount: float) -> None:
        """Return ``amount`` tokens and grant as many queued requests as fit."""
        self._level += float(amount)
        if self._level > self.capacity + 1e-6:
            raise RuntimeError(
                f"pool {self.name!r} over-released: level={self._level:g} "
                f"capacity={self.capacity:g}"
            )
        self._drain()

    def _drain(self) -> None:
        while self._waiters:
            amount, event = self._waiters[0]
            if self._level + self._EPS < amount:
                break
            self._waiters.popleft()
            self._level -= amount
            event.succeed(amount)

    def transfer(self, amount_tokens: float,
                 duration: float) -> Generator[Event, Any, None]:
        """Process helper: hold ``amount_tokens`` for ``duration`` seconds."""
        granted = yield self.acquire(amount_tokens)
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(granted)

    def __repr__(self) -> str:
        return (f"<CapacityPool {self.name!r} {self._level:g}/{self.capacity:g}"
                f" queued={len(self._waiters)}>")
