"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic generator-coroutine design (as popularised by
SimPy): simulated activities are Python generators that ``yield`` events; the
:class:`~repro.sim.core.Environment` resumes them when those events fire.

Everything in the simulated cluster — task execution, message transfer,
NIC occupancy — is ultimately expressed in terms of the primitives in this
module:

* :class:`Event` — a one-shot occurrence with a value (or an exception),
* :class:`Timeout` — an event that fires after a fixed virtual delay,
* :class:`Process` — a running generator, itself usable as an event that
  fires when the generator returns,
* :class:`Condition` / :func:`all_of` / :func:`any_of` — event combinators.

Determinism is a hard requirement for reproducing the paper's figures, so
events scheduled for the same virtual time fire in FIFO order of scheduling
(ties are broken by a monotonically increasing sequence number, never by
object identity).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Environment

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "all_of",
    "any_of",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level protocol violations (double trigger, etc.)."""


class Interrupt(Exception):
    """Thrown *into* a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries an arbitrary user value describing why
    the process was interrupted (e.g. a fault-injection record).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Events move through three states:
PENDING = 0  #: created, not yet scheduled to fire
TRIGGERED = 1  #: scheduled in the event queue, value decided
PROCESSED = 2  #: callbacks have run


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    decides its value and schedules its callbacks to run at the current
    simulation time. Processes wait on an event by ``yield``-ing it.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_state", "name")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.name = name
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = PENDING

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event's outcome has been decided."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value (raises if the event failed or is pending)."""
        if not self.triggered:
            raise SimulationError(f"value of {self!r} is not yet available")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure cause, or None (pending or succeeded)."""
        return self._exception

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Decide the event as successful with ``value`` and schedule it."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self._state = TRIGGERED
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Decide the event as failed with ``exception`` and schedule it."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = TRIGGERED
        self.env.schedule(self)
        return self

    def fire(self, value: Any = None) -> None:
        """Decide the event as successful with ``value`` and run its
        callbacks now, in the caller's frame, instead of through the queue.

        For a hand-off that moves no clock: the queue entry :meth:`succeed`
        costs only postpones the waiters within the instant. Legal only
        from inside the dispatch of the instant the event belongs to (a
        timer callback, a process step), and only once the caller's own
        state is consistent — the waiters run, and may call back into the
        caller, before ``fire`` returns.
        """
        if self._state != PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self._run_callbacks()

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of another (triggered) event onto this one.

        Used by condition events to forward child outcomes.
        """
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed(event._value)

    # -- kernel hooks --------------------------------------------------------
    def _run_callbacks(self) -> None:
        """Invoke callbacks; called exactly once, by the environment or by
        :meth:`fire`."""
        callbacks, self.callbacks = self.callbacks, None
        self._state = PROCESSED
        assert callbacks is not None
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback``; runs immediately-ish if already processed."""
        if self.callbacks is None:
            # Already processed: schedule a shadow event so the callback
            # still runs through the queue (preserving FIFO determinism).
            shadow = Event(self.env, name=f"shadow:{self.name}")
            shadow.add_callback(lambda _s: callback(self))
            if self._exception is not None:
                shadow._exception = self._exception
                shadow._state = TRIGGERED
                self.env.schedule(shadow)
            else:
                shadow.succeed(self._value)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state[self._state]}>"


class Timeout(Event):
    """An event that fires ``delay`` units of virtual time in the future.

    Timeouts are by far the most-allocated event type (every task charge,
    transfer leg and merge cost is one), so ``__init__`` is flattened: no
    ``super()`` chain and no eager name formatting — the display name is
    derived from ``delay`` on demand in :meth:`__repr__`.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.env = env
        self.name = name
        self.callbacks = []
        self._value = value
        self._exception = None
        self._state = TRIGGERED
        self.delay = delay
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        if self.name:
            return super().__repr__()
        state = {PENDING: "pending", TRIGGERED: "triggered",
                 PROCESSED: "processed"}
        return f"<Timeout 'timeout({self.delay:g})' {state[self._state]}>"


class _Boot:
    """A zero-allocation-overhead bootstrap entry for a new :class:`Process`.

    The kernel only requires queue entries to expose ``_run_callbacks``; a
    full boot :class:`Event` (callbacks list, closure, shadow-event
    machinery) is overkill for the one-shot "resume the generator now"
    trampoline, and processes are allocated on every task, transfer and
    lock wait. Consumes exactly one schedule() sequence number — the same
    as the boot event it replaces — so FIFO ordering is untouched.
    """

    __slots__ = ("process",)

    def __init__(self, process: "Process"):
        self.process = process

    def _run_callbacks(self) -> None:
        proc = self.process
        if proc._state == PENDING:
            proc._advance(None)


class Process(Event):
    """A running generator coroutine.

    A process is also an event: it triggers when its generator returns
    (success, with the ``return`` value) or raises (failure). This is what
    makes ``yield some_process`` a join operation.
    """

    __slots__ = ("generator", "_target", "_interrupts", "critical")

    def __init__(self, env: "Environment",
                 generator: Generator[Event, Any, Any],
                 name: str = "", critical: bool = False):
        if not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(env, name=name or getattr(generator, "__name__", "proc"))
        self.generator = generator
        #: critical processes crash the simulation when they fail — for
        #: infrastructure nobody joins (timers, daemons), whose failures
        #: would otherwise be silently swallowed
        self.critical = critical
        self._target: Optional[Event] = None  # event we are waiting on
        self._interrupts: list = []
        # Bootstrap: resume the generator at the current time (lightweight
        # trampoline — see _Boot).
        env.schedule(_Boot(self))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        twice before it handles the first interrupt queues the causes.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        self._interrupts.append(Interrupt(cause))
        if len(self._interrupts) == 1:
            # Detach from the current target (its eventual firing must not
            # resume us with a stale value).
            poke = Event(self.env, name=f"interrupt:{self.name}")
            poke.add_callback(self._deliver_interrupt)
            poke.succeed(None)

    def _deliver_interrupt(self, _event: Event) -> None:
        if not self.is_alive or not self._interrupts:
            return
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        interrupt = self._interrupts.pop(0)
        self._advance(None, interrupt)

    def _resume(self, event: Event) -> None:
        if self._state != PENDING:
            return
        self._target = None
        self._advance(event._value, event._exception)

    def _advance(self, value: Any,
                 exc: Optional[BaseException] = None) -> None:
        """Resume the generator with ``value`` (or throw ``exc`` into it).

        This is the kernel's innermost loop — one call per process step —
        so the send/throw dispatch is inlined rather than packaged into a
        per-step closure.
        """
        env = self.env
        # not None when this step runs inside another's (Event.fire)
        outer = env._active_process
        env._active_process = self
        try:
            if exc is None:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(exc)
        except StopIteration as stop:
            env._active_process = outer
            self.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - propagate as failure
            env._active_process = outer
            if self.critical:
                raise  # crash the simulation loudly (infrastructure bug)
            self.fail(error)
            return
        env._active_process = outer
        if not isinstance(target, Event):
            # Crash the process with a clear error: generators may only
            # yield kernel events.
            error = SimulationError(
                f"process {self.name!r} yielded a non-event: {target!r}"
            )
            self._step_fail(error)
            return
        if target.env is not env:
            self._step_fail(SimulationError(
                f"process {self.name!r} yielded an event from another environment"
            ))
            return
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed — resume via a shadow event to stay FIFO.
            target.add_callback(self._resume)
        else:
            callbacks.append(self._resume)
        self._target = target

    def _step_fail(self, error: BaseException) -> None:
        try:
            self.generator.throw(error)
        except StopIteration as stop:
            self.succeed(stop.value)
        except BaseException as exc:  # noqa: BLE001
            self.fail(exc)


class Condition(Event):
    """An event that fires when ``evaluate(children, n_done)`` is true.

    Used through the :func:`all_of` / :func:`any_of` helpers. The condition
    value is a dict mapping each *triggered* child event to its value, in
    child order (insertion-ordered).
    """

    __slots__ = ("_children", "_evaluate", "_fired")

    def __init__(self, env: "Environment",
                 evaluate: Callable[[list, int], bool],
                 children: Iterable[Event],
                 name: str = ""):
        super().__init__(env, name=name or "condition")
        self._children = list(children)
        self._evaluate = evaluate
        self._fired: set = set()
        for child in self._children:
            if child.env is not env:
                raise SimulationError("condition spans multiple environments")
        if not self._children and evaluate(self._children, 0):
            self.succeed({})
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if child._exception is not None:
            self.fail(child._exception)
            return
        self._fired.add(id(child))
        if self._evaluate(self._children, len(self._fired)):
            self.succeed({
                c: c._value for c in self._children if id(c) in self._fired
            })


def all_of(env: "Environment", events: Iterable[Event]) -> Condition:
    """An event that fires once *all* of ``events`` have fired."""
    return Condition(env, lambda children, count: count == len(children),
                     events, name="all_of")


def any_of(env: "Environment", events: Iterable[Event]) -> Condition:
    """An event that fires as soon as *any* of ``events`` has fired."""
    return Condition(env, lambda children, count: count >= 1,
                     events, name="any_of")
