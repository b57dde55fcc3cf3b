"""The fault controller: executes a plan against a live context.

Arming a :class:`FaultController` attaches it to the context
(``sc.faults``), spawns one simulation process per time-windowed fault
(crash-at-time, straggler, NIC degradation) and subscribes to the
observability bus for event-triggered crashes (stage boundaries, ring
hops). Link faults are not processes at all: the comm fabric consults
:meth:`FaultController.message_fault` per message, so an unarmed run pays
nothing and an armed run perturbs only the messages the plan names.

Every injection appends a :class:`~repro.obs.FaultInjected` to
``controller.injected`` and mirrors it onto the event bus, so fault
timelines land in the same JSONL log / Chrome trace as everything else.
Determinism: the controller schedules through the same seeded kernel as
the workload and keeps no wall-clock state, so one plan + one seed
replays to a byte-identical event stream.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from ..obs import FaultInjected, channel_str
from .plan import (
    AtRingHop,
    AtStageBoundary,
    AtTime,
    DriverNicDegradation,
    ExecutorCrash,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    RecoveryPolicy,
    Straggler,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..rdd.context import SparkerContext

__all__ = ["FaultController"]


class _Watcher:
    """One event-triggered crash counting down to its occurrence."""

    __slots__ = ("fault", "trigger", "remaining", "fired")

    def __init__(self, fault: ExecutorCrash, trigger: Any):
        self.fault = fault
        self.trigger = trigger
        self.remaining = trigger.occurrence
        self.fired = False


class _LinkState:
    """Mutable skip/count counters for one link fault."""

    __slots__ = ("fault", "skip", "remaining", "channel_key")

    def __init__(self, fault: Any):
        self.fault = fault
        self.skip = fault.skip
        self.remaining = fault.count
        self.channel_key = (None if fault.channel is None
                            else channel_str(fault.channel))


class FaultController:
    """Interprets a :class:`~repro.faults.plan.FaultPlan` against ``sc``.

    Usage::

        controller = FaultController(sc, plan, recovery).arm()
        result = split_aggregate(...)   # survives the plan
        controller.injected             # what actually fired
    """

    def __init__(self, sc: "SparkerContext", plan: Optional[FaultPlan] = None,
                 recovery: Optional[RecoveryPolicy] = None):
        self.sc = sc
        self.plan = plan if plan is not None else FaultPlan()
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        #: every FaultInjected, in firing order
        self.injected: List[FaultInjected] = []
        #: every RecoveryAction the engine reported back, in order
        self.actions: List[Any] = []
        self._armed = False
        self._subscribed = False
        self._stage_watchers: List[_Watcher] = []
        self._hop_watchers: List[_Watcher] = []
        self._link_states: List[_LinkState] = []

    # ------------------------------------------------------------------- arm
    def arm(self) -> "FaultController":
        """Attach to the context and schedule every planned fault."""
        if self._armed:
            raise RuntimeError("controller is already armed")
        if self.sc.faults is not None:
            raise RuntimeError("another fault controller is armed")
        self._armed = True
        self.sc.faults = self
        env = self.sc.env
        for fault in self.plan.faults:
            if isinstance(fault, ExecutorCrash):
                trigger = fault.trigger
                if isinstance(trigger, AtTime):
                    env.process(self._timed_crash(fault, trigger),
                                name="fault-controller")
                elif isinstance(trigger, AtStageBoundary):
                    self._stage_watchers.append(_Watcher(fault, trigger))
                elif isinstance(trigger, AtRingHop):
                    self._hop_watchers.append(_Watcher(fault, trigger))
                else:  # pragma: no cover - plan validation guards this
                    raise TypeError(f"unknown trigger {trigger!r}")
            elif isinstance(fault, (MessageDrop, MessageDelay)):
                self._link_states.append(_LinkState(fault))
            elif isinstance(fault, Straggler):
                env.process(self._straggler_window(fault),
                            name="fault-controller")
            elif isinstance(fault, DriverNicDegradation):
                env.process(self._nic_window(fault),
                            name="fault-controller")
            else:  # pragma: no cover - FaultPlan validates
                raise TypeError(f"unknown fault {fault!r}")
        if self._stage_watchers or self._hop_watchers:
            self.sc.event_bus.subscribe(self._on_event)
            self._subscribed = True
        return self

    def disarm(self) -> None:
        """Detach from the context (pending timed faults still fire if the
        simulation runs past their instants; event triggers are dead)."""
        if self._subscribed:
            self.sc.event_bus.unsubscribe(self._on_event)
            self._subscribed = False
        if self.sc.faults is self:
            self.sc.faults = None
        self._armed = False

    # -------------------------------------------------------------- recording
    def _record(self, event: FaultInjected) -> None:
        bus = self.sc.event_bus
        if bus.active and event.span_id < 0:
            # Injections are causal roots: they get their own span so
            # recovery epochs and Chrome-trace markers can reference them.
            event = replace(event, span_id=bus.tracer.new_span())
        self.injected.append(event)
        if bus.active:
            bus.emit(event)

    # ----------------------------------------------------------- crash faults
    def _crash(self, fault: ExecutorCrash, trigger: str,
               detail: str = "") -> None:
        self._record(FaultInjected.fast(
            time=self.sc.now, fault="executor_crash",
            target=f"executor {fault.executor_id}", trigger=trigger,
            executor_id=fault.executor_id, detail=detail))
        self.sc.executor_by_id(fault.executor_id).kill(
            f"fault injection ({trigger})")

    def _timed_crash(self, fault: ExecutorCrash, trigger: AtTime):
        env = self.sc.env
        delay = trigger.time - env.now
        if delay > 0:
            yield env.timeout(delay)
        self._crash(fault, trigger="at_time")

    def _on_event(self, event: Any) -> None:
        kind = event.kind
        if kind == "ring_hop" and self._hop_watchers:
            fired = False
            for watcher in self._hop_watchers:
                trigger = watcher.trigger
                if watcher.fired or event.hop != trigger.hop:
                    continue
                if (trigger.channel is not None
                        and event.channel != channel_str(trigger.channel)):
                    continue
                if watcher.remaining > 0:
                    watcher.remaining -= 1
                    continue
                watcher.fired = True
                fired = True
                self._crash(watcher.fault, trigger="ring_hop",
                            detail=f"channel {event.channel} hop {event.hop}")
            if fired:
                self._hop_watchers = [w for w in self._hop_watchers
                                      if not w.fired]
        elif kind in ("stage_submitted", "stage_completed") \
                and self._stage_watchers:
            edge = ("submitted" if kind == "stage_submitted"
                    else "completed")
            fired = False
            for watcher in self._stage_watchers:
                trigger = watcher.trigger
                if (watcher.fired or trigger.edge != edge
                        or trigger.stage_kind != event.stage_kind):
                    continue
                if watcher.remaining > 0:
                    watcher.remaining -= 1
                    continue
                watcher.fired = True
                fired = True
                self._crash(
                    watcher.fault, trigger="stage_boundary",
                    detail=f"{event.stage_kind} stage {event.stage_id} "
                           f"{edge}")
            if fired:
                self._stage_watchers = [w for w in self._stage_watchers
                                        if not w.fired]

    # ------------------------------------------------------------ link faults
    def message_fault(self, src: int, dst: int, channel: str,
                      hop: Optional[int],
                      nbytes: float) -> Optional[Tuple[str, float]]:
        """Fabric hook: the fate of one message, or None for normal delivery.

        First matching fault wins; a match consumes either one of its
        ``skip`` passes or one of its ``count`` injections.
        """
        if not self._link_states:
            return None
        for state in self._link_states:
            if state.remaining <= 0:
                continue
            fault = state.fault
            if fault.src >= 0 and fault.src != src:
                continue
            if fault.dst >= 0 and fault.dst != dst:
                continue
            if state.channel_key is not None \
                    and channel != state.channel_key:
                continue
            if state.skip > 0:
                state.skip -= 1
                return None
            state.remaining -= 1
            hop_note = "" if hop is None else f" hop {hop}"
            if isinstance(fault, MessageDrop):
                self._record(FaultInjected.fast(
                    time=self.sc.now, fault="message_drop",
                    target=f"rank {src} -> rank {dst}", trigger="link",
                    src=src, dst=dst, channel=channel,
                    detail=f"{nbytes:g}B{hop_note}"))
                return ("drop", 0.0)
            self._record(FaultInjected.fast(
                time=self.sc.now, fault="message_delay",
                target=f"rank {src} -> rank {dst}", trigger="link",
                src=src, dst=dst, channel=channel,
                detail=f"+{fault.delay:g}s {nbytes:g}B{hop_note}"))
            return ("delay", fault.delay)
        return None

    # ------------------------------------------------------- windowed faults
    def _straggler_window(self, fault: Straggler):
        env = self.sc.env
        if fault.start > env.now:
            yield env.timeout(fault.start - env.now)
        executor = self.sc.executor_by_id(fault.executor_id)
        saved = executor.compute_scale
        executor.compute_scale = fault.factor
        self._record(FaultInjected.fast(
            time=env.now, fault="straggler",
            target=f"executor {fault.executor_id}", trigger="window",
            executor_id=fault.executor_id,
            detail=f"compute x{fault.factor:g}"))
        if math.isinf(fault.duration):
            return
        yield env.timeout(fault.duration)
        executor.compute_scale = saved
        self._record(FaultInjected.fast(
            time=env.now, fault="straggler_end",
            target=f"executor {fault.executor_id}", trigger="window",
            executor_id=fault.executor_id))

    def _nic_window(self, fault: DriverNicDegradation):
        env = self.sc.env
        if fault.start > env.now:
            yield env.timeout(fault.start - env.now)
        driver = self.sc.cluster.driver_node
        flows = self.sc.cluster.network.flows
        saved_in = driver.nic_in.capacity
        saved_out = driver.nic_out.capacity
        flows.set_link_capacity(driver.nic_in, saved_in * fault.factor)
        flows.set_link_capacity(driver.nic_out, saved_out * fault.factor)
        self._record(FaultInjected.fast(
            time=env.now, fault="nic_degradation",
            target=f"driver {driver.hostname}", trigger="window",
            detail=f"capacity x{fault.factor:g}"))
        if math.isinf(fault.duration):
            return
        yield env.timeout(fault.duration)
        flows.set_link_capacity(driver.nic_in, saved_in)
        flows.set_link_capacity(driver.nic_out, saved_out)
        self._record(FaultInjected.fast(
            time=env.now, fault="nic_restored",
            target=f"driver {driver.hostname}", trigger="window"))

    def __repr__(self) -> str:
        state = "armed" if self._armed else "idle"
        return (f"<FaultController {state} plan={len(self.plan)} "
                f"injected={len(self.injected)}>")
