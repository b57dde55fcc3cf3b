"""Accumulators: write-only shared variables (Spark's metric channel).

Tasks add to an accumulator; only the driver reads the total. Spark uses
these for internal metrics (records read, bytes spilled) and MLlib for
things like sample counts. Semantics mirror Spark's:

* updates from **successful** task attempts are applied exactly once —
  a retried task's failed attempt contributes nothing;
* updates become visible to the driver when the task completes;
* accumulators are not readable inside tasks.

Implementation: each task attempt buffers its updates in the
:class:`~repro.rdd.task_context.TaskContext`; the executor publishes the
buffer to the driver only when the attempt finishes cleanly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generic, TypeVar

if TYPE_CHECKING:  # pragma: no cover
    from .context import SparkerContext
    from .task_context import TaskContext

__all__ = ["Accumulator", "AccumulatorRegistry"]

T = TypeVar("T")


class Accumulator(Generic[T]):
    """A driver-readable, task-addable counter."""

    def __init__(self, sc: "SparkerContext", accum_id: int, zero: T,
                 add_op: Callable[[T, T], T], name: str = ""):
        self._sc = sc
        self.accum_id = accum_id
        self.name = name or f"accumulator_{accum_id}"
        self._zero = zero
        self._add_op = add_op
        self._value = zero

    @property
    def value(self) -> T:
        """Driver-side read of the accumulated total."""
        ctx = _active_task_context()
        if ctx is not None:
            raise RuntimeError(
                f"accumulator {self.name!r} cannot be read inside a task")
        return self._value

    def add(self, amount: T) -> None:
        """Add ``amount`` — buffered per attempt inside tasks, immediate
        on the driver."""
        ctx = _active_task_context()
        if ctx is None:
            self._value = self._add_op(self._value, amount)
            return
        buffered = ctx.accumulator_updates.get(self.accum_id, self._zero)
        ctx.accumulator_updates[self.accum_id] = self._add_op(buffered,
                                                              amount)

    # ------------------------------------------------------------- plumbing
    def _apply(self, amount: T) -> None:
        """Driver-side merge of one completed attempt's buffered update."""
        self._value = self._add_op(self._value, amount)

    def __repr__(self) -> str:
        return f"<Accumulator {self.name!r} id={self.accum_id}>"


class AccumulatorRegistry:
    """Driver-side registry; resolves ids to accumulators on publish."""

    def __init__(self) -> None:
        self._accumulators: Dict[int, Accumulator] = {}
        self._next_id = 0

    def create(self, sc: "SparkerContext", zero: Any,
               add_op: Callable[[Any, Any], Any],
               name: str = "") -> Accumulator:
        accum = Accumulator(sc, self._next_id, zero, add_op, name)
        self._accumulators[self._next_id] = accum
        self._next_id += 1
        return accum

    def publish(self, updates: Dict[int, Any]) -> None:
        """Apply one successful task attempt's buffered updates."""
        for accum_id, amount in updates.items():
            accum = self._accumulators.get(accum_id)
            if accum is not None:
                accum._apply(amount)


# --------------------------------------------------------------------------
# Active-task tracking: lets Accumulator.add know whether it runs inside a
# task (buffer per attempt) or on the driver (apply immediately). The
# executor sets/clears this around user code; the simulation is
# single-threaded, so a module global is safe and deterministic.
# --------------------------------------------------------------------------
_ACTIVE_CONTEXT: list = []


def _active_task_context():
    return _ACTIVE_CONTEXT[-1] if _ACTIVE_CONTEXT else None


def push_task_context(ctx: "TaskContext") -> None:
    _ACTIVE_CONTEXT.append(ctx)


def pop_task_context() -> None:
    _ACTIVE_CONTEXT.pop()
