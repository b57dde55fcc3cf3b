"""The cooperative driver reactor: many job threads, one event loop.

The classic blocking API runs driver code and the simulation kernel on
one thread, alternating between them (``sc.env.run(until=proc)``). The
job service needs *many* drivers — one per in-flight job — sharing one
kernel, without making the kernel thread-safe or turning every driver
call site into a coroutine. The :class:`Cooperator` squares that circle
with strict baton-passing:

* Each job runs its (unchanged, synchronous) driver code on a job
  thread; exactly one thread — the **owner** (which created the
  Cooperator and calls :meth:`~Cooperator.pump`) or one job thread —
  holds the baton and runs at any moment.
* Whoever holds the baton runs the one decision loop: the owner's
  predicate, then the FIFO ready queue, then one ``env.step()``. When a
  job calls ``env.run(until=event)``, the environment delegates here
  (see :attr:`Environment._cooperator`): the job registers a wake-up
  callback on the event and its own thread goes on driving the kernel.
  It returns to the job when its own wake-up is the next ready entry;
  the baton moves to another thread only when the next runner *is*
  another thread (another job's wake-up, or the owner's predicate
  coming true).
* A job thread whose body returned drives on and runs the next spawned
  job itself; a thread with nothing to run parks in an idle pool that
  later jobs reuse and :meth:`~Cooperator.close` shuts down.
* A kernel error (or a job body's escaped exception) on a job thread is
  handed to the owner and raised by its ``pump``, never into the job
  that happened to hold the baton. On an empty schedule the owner takes
  the baton back and decides between returning and
  :class:`ServiceDeadlock` itself.

The decisions, and their order, are the ones an owner-only pump makes;
only the thread executing each one differs. So no engine state needs
locking, and a fixed submission schedule replays to bit-identical
virtual timelines and recorded event streams. Kernel code therefore
reads no thread-local state: everything a submitter's thread knows (job
id, pool, trace parent) is captured at submission.

:attr:`Cooperator.handoffs` counts baton passes between threads and
:attr:`Cooperator.threads_started` the job threads created. Before its
first job thread starts, the reactor caps glibc's malloc arenas at one:
threads that never run at the same time need no arena each.

Cancellation composes with this for free: to cancel a job, interrupt the
simulation :class:`~repro.sim.Process` its worker is parked on — the
process fails, the worker wakes with the failure re-raised in its
``env.run`` call, and the job's own exception handling unwinds it.
"""

from __future__ import annotations

import ctypes
import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from ..sim import EmptySchedule, Environment, Event

__all__ = ["Cooperator", "ServiceDeadlock"]

#: glibc's ``mallopt`` parameter for the most malloc arenas it creates
_M_ARENA_MAX = -8


def _one_malloc_arena() -> bool:
    """Cap glibc at one malloc arena; False where there is no ``mallopt``.

    glibc gives each new thread that allocates its own arena (up to eight
    per core), and an arena's freed pages stay with it. Job threads run
    one at a time, so they contend for nothing and one arena serves all.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_ARENA_MAX, 1))


class ServiceDeadlock(RuntimeError):
    """The simulation drained while workers were still parked.

    Every parked worker awaits a simulation event; an empty event queue
    means none of those events can ever fire — some job is waiting on a
    resource or signal nothing will produce.
    """


class _Worker:
    """Bookkeeping for one spawned job."""

    __slots__ = ("name", "fn", "runner", "parked_on", "done")

    def __init__(self, name: str, fn: Callable[[], None]):
        self.name = name
        self.fn = fn
        #: the thread running this job; None until it starts
        self.runner: Optional[_Runner] = None
        #: simulation event this worker is currently parked on
        self.parked_on: Optional[Event] = None
        self.done = False

    def __repr__(self) -> str:
        state = ("done" if self.done
                 else f"parked on {self.parked_on!r}" if self.parked_on
                 else "ready")
        return f"<worker {self.name} {state}>"


class _Runner:
    """One job thread: its baton and the job it is running."""

    __slots__ = ("baton", "thread", "worker")

    def __init__(self, main: Callable[["_Runner"], None], name: str):
        #: held while the thread waits; whoever hands the thread the
        #: baton releases it (strict baton-passing)
        self.baton = threading.Lock()
        self.baton.acquire()
        self.thread = threading.Thread(target=main, args=(self,),
                                       name=name, daemon=True)
        #: the job this thread runs; None while it is free (and, when it
        #: is woken free, the order to exit)
        self.worker: Optional[_Worker] = None


class Cooperator:
    """Baton-passing scheduler for driver worker threads over one env.

    Construct on the thread that will pump the loop (the *owner*); it
    attaches itself to ``env`` so every ``env.run(until=...)`` issued
    from a spawned worker parks that worker's job instead of re-entering
    the kernel from the top.
    """

    def __init__(self, env: Environment):
        if env._cooperator is not None:
            raise RuntimeError("environment already has a cooperator")
        self.env = env
        env._cooperator = self
        #: job threads by thread object, busy and idle
        self._runners: Dict[threading.Thread, _Runner] = {}
        #: free job threads parked until a job or :meth:`close` wakes them
        self._idle: List[_Runner] = []
        #: spawned jobs that have not finished, in spawn order
        self._workers: Dict[_Worker, None] = {}
        #: workers whose awaited event has been processed (or who were
        #: just spawned), in wake-up order
        self._ready: Deque[_Worker] = deque()
        #: the owner's baton: released when a job thread hands control
        #: back
        self._owner_baton = threading.Lock()
        self._owner_baton.acquire()
        #: the running pump's predicate, evaluated by whoever drives
        self._until_done: Optional[Callable[[], bool]] = None
        #: an exception a job thread caught for the owner to raise
        self._failure: Optional[BaseException] = None
        #: baton passes from one thread to another
        self.handoffs = 0
        #: job threads created (each is reused until :meth:`close`)
        self.threads_started = 0

    # ---------------------------------------------------- Environment hook
    def owns_current_thread(self) -> bool:
        """True when the calling thread is one of the job threads."""
        return threading.current_thread() in self._runners

    def await_event(self, until) -> object:
        """Drive the kernel until ``until`` is processed and it is this
        job's turn again.

        This is the body of ``env.run(until=...)`` for worker threads;
        it mirrors the kernel's contract — return the event's value, or
        re-raise its failure exception.
        """
        if not isinstance(until, Event):
            raise RuntimeError(
                "service worker threads may only run until a specific "
                f"event, not {until!r}: draining the queue or running to "
                "a time horizon belongs to the owner thread")
        if until.processed:
            if until.exception is not None:
                raise until.exception
            return until.value
        runner = self._runners[threading.current_thread()]
        worker = runner.worker
        worker.parked_on = until
        until.add_callback(lambda _event: self._ready.append(worker))
        self._drive(runner)
        worker.parked_on = None
        if until.exception is not None:
            raise until.exception
        return until.value

    # -------------------------------------------------------------- spawn
    def spawn(self, fn: Callable[[], None], name: str) -> _Worker:
        """Queue ``fn`` as a job; it runs when the loop reaches it.

        The job is born on the ready queue and does not run until the
        baton holder pops it, so spawning from anywhere (the owner
        thread, another worker, a simulation process body) never
        violates the one-runnable-thread invariant.
        """
        worker = _Worker(name, fn)
        self._workers[worker] = None
        self._ready.append(worker)
        return worker

    def _runner_for(self, worker: _Worker) -> _Runner:
        """The thread ``worker`` runs on next: its own once started, else
        an idle one or a new one."""
        if worker.runner is not None:
            return worker.runner
        if self._idle:
            runner = self._idle.pop()
        else:
            if self.threads_started == 0:
                _one_malloc_arena()
            self.threads_started += 1
            runner = _Runner(self._runner_main,
                             f"sparker-job-{self.threads_started}")
            self._runners[runner.thread] = runner
            runner.thread.start()
        runner.worker = worker
        worker.runner = runner
        return runner

    def _runner_main(self, runner: _Runner) -> None:
        runner.baton.acquire()  # born parked: run once given the baton
        while runner.worker is not None:
            worker = runner.worker
            try:
                worker.fn()
            except BaseException as exc:  # noqa: BLE001 - the owner raises it
                self._failure = exc
            finally:
                # The thread holds the baton here, so mutating shared
                # bookkeeping is safe. The body's closure goes: this
                # thread outlives the job.
                del self._workers[worker]
                worker.done = True
                worker.fn = None
                runner.worker = None
            if self._failure is not None:
                self._switch(runner, None)
            else:
                self._drive(runner)

    # ----------------------------------------------------------- the loop
    def _switch(self, me: Optional[_Runner], to: Optional[_Runner]) -> None:
        """Pass the baton from ``me`` to ``to`` (None: the owner) and wait
        until it comes back; a free job thread waits in the idle pool."""
        if me is not None and me.worker is None:
            self._idle.append(me)
        self.handoffs += 1
        (self._owner_baton if to is None else to.baton).release()
        (self._owner_baton if me is None else me.baton).acquire()

    def _drive(self, me: Optional[_Runner]) -> None:
        """The decision loop, run by the baton holder ``me`` (None: the
        owner).

        A job thread returns when it has work: its own job's wake-up came
        up, or (free) it took a fresh job. What a job thread catches here
        — a kernel error, a predicate's — goes to the owner, never into
        its job. The owner returns when its predicate holds or the
        schedule drained with nobody parked.
        """
        env = self.env
        ready = self._ready
        try:
            while True:
                until_done = self._until_done
                if until_done is not None and until_done():
                    if me is not None:
                        self._switch(me, None)
                    return
                if ready:
                    worker = ready.popleft()
                    # its own job's wake-up, or a fresh job for a free
                    # thread: run it here, without a switch
                    if me is not None and (worker.runner is me or (
                            worker.runner is None and me.worker is None)):
                        me.worker = worker
                        worker.runner = me
                        return
                    self._switch(me, self._runner_for(worker))
                    if me is not None:
                        return
                    failure = self._failure
                    if failure is not None:
                        self._failure = None
                        raise failure
                    continue
                try:
                    env.step()
                except EmptySchedule:
                    if me is not None:
                        # the owner decides between returning and deadlock
                        self._switch(me, None)
                        return
                    parked = [w for w in self._workers
                              if w.parked_on is not None]
                    if parked:
                        raise ServiceDeadlock(
                            f"simulation drained with {len(parked)} "
                            f"worker(s) still parked: {parked}") from None
                    if until_done is not None and not until_done():
                        raise ServiceDeadlock(
                            "simulation drained before the awaited "
                            "condition became true") from None
                    return
        except BaseException as exc:  # noqa: BLE001 - the owner raises it
            if me is None:
                raise
            self._failure = exc
            self._switch(me, None)

    # --------------------------------------------------------------- pump
    def pump(self, until_done: Optional[Callable[[], bool]] = None) -> None:
        """Run workers and the event loop until ``until_done()`` is true.

        With no predicate, runs until every worker has exited and the
        event queue has drained. Must be called on the owner thread
        (worker threads re-enter the kernel through :meth:`await_event`
        instead).
        """
        if threading.current_thread() in self._runners:
            raise RuntimeError("pump() must run on the owner thread")
        self._until_done = until_done
        try:
            self._drive(None)
        finally:
            self._until_done = None

    # ------------------------------------------------------------ teardown
    def close(self) -> None:
        """Stop and join the idle job threads (owner thread, not while
        pumping). Threads parked mid-job are daemons and stay parked."""
        idle, self._idle = self._idle, []
        for runner in idle:
            runner.baton.release()  # woken free: the order to exit
        for runner in idle:
            runner.thread.join()
            del self._runners[runner.thread]

    def __repr__(self) -> str:
        return (f"<Cooperator workers={len(self._workers)} "
                f"ready={len(self._ready)}>")
