"""Split aggregation: the paper's contribution (§3.1, §4.3, Figure 6).

``splitAggregate(zeroValue)(seqOp, splitOp, reduceOp, concatOp,
parallelism)`` generalizes ``treeAggregate`` with object-splitting
callbacks so the reduction can run a *scalable* algorithm:

* ``seqOp(U, T) -> U`` — fold one element into an aggregator (unchanged),
* ``splitOp(U, i, n) -> V`` — extract segment ``i`` of ``n`` from an
  aggregator; aggregator (``U``) and segment (``V``) types may differ
  (Figure 7's ``Agg`` vs ``AggSeg`` rationale),
* ``reduceOp(V, V) -> V`` — merge two segments,
* ``concatOp(Seq[V]) -> V`` — reassemble segments into the final value.

The executor-local IMM merge operates on whole aggregators, which is the
one operation the four SAI callbacks cannot express when ``U != V``; pass
``merge_op`` (MLlib's existing ``combOp``) for such types. When ``U`` and
``V`` coincide (Figure 7's arrays, the micro-benchmarks), the default
derives the merge from ``splitOp``/``reduceOp`` on the whole-object
segment.

Execution (§4.3) is one staged driver, :func:`_drive`, that every
collective and every policy goes through:

1. **plan** (``collective="pipelined_ring"`` only) — start the ring over
   the stage's *predicted* holders before the stage runs, each rank
   blocked on its executor's readiness (:func:`_open_stream`);
2. **fold** — the **reduced-result stage** folds every partition and
   merges task results per executor in memory (IMM), leaving exactly one
   aggregator per executor;
3. **stream or reduce** — a healthy stream just runs to completion.
   Otherwise (a phased collective, or a lost stream) :func:`_reduce`
   repeats :func:`_reduce_once` — a **SpawnRDD** pins one task per
   holding executor and those tasks run the **reduce-scatter** over
   ``N * parallelism`` segments — until one attempt succeeds;
4. **collect** — the owned segments are gathered to the driver and
   concatenated, and the call's IMM aggregators, communicator and
   listeners are released whether it returned or raised.

Fault tolerance is the per-call :class:`_Armor`: the
:class:`~repro.faults.RecoveryPolicy` in effect (the spec's, else the
armed :class:`~repro.faults.FaultController`'s), the controller, the
:class:`~repro.comm.ring.ChunkLedger`, the death listeners, the abort
flag, and every communicator's ``faults=`` / ``recv_timeout=``. With no
policy it is inert — no listeners, no recv deadline, one attempt, every
exception propagates. With a policy the reduce step is a loop:

1. **detect** — ring recvs carry a failure-detection timeout and every
   holding executor gets a death listener that aborts the collective the
   instant it dies;
2. **recompute** — a dead holder's lost partitions re-run through lineage
   (a partial reduced-result job over only those partitions), and the
   recomputed partials are absorbed into the surviving aggregators under
   a fresh *aggregation epoch* that fences any stale task merges;
3. **rebuild** — a new ring over the survivors (hostname re-sorted), up
   to ``max_ring_attempts`` times, after which the aggregation falls back
   to ``treeAggregate`` over the same lineage.

A stream lost mid-flight (crash, recv timeout, placement off the plan) is
torn down and downgrades to the same loop, keeping
``algorithm="pipelined_ring"`` and the ledger, so a rebuild replays only
the chunk columns nobody acknowledged. An armed call that meets no fault
equals the inert one in result bytes and virtual time
(``tests/core/test_sai_armor.py``).
"""

from __future__ import annotations

import warnings
from collections import Counter
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..comm.ring import ChunkLedger, ScalableCommunicator
from ..obs import (CollectiveChosen, CollectiveCompleted,
                   CollectiveCostEstimate, CollectiveDowngraded,
                   RecoveryAction, ResidualNorm)
from ..rdd.rdd import RDD
from ..rdd.scheduler import JobFailed
from ..rdd.task_context import TaskContext
from ..serde import sim_sizeof
from ..sim import SimulationError
from .aggregation import fold_partition, fresh_zero, tree_aggregate
from .spawn_rdd import SpawnRDD
from .spec import AggregationSpec

__all__ = ["split_aggregate"]

SeqOp = Callable[[Any, Any], Any]
SplitOp = Callable[[Any, int, int], Any]
ReduceOp = Callable[[Any, Any], Any]
ConcatOp = Callable[[Sequence[Any]], Any]
MergeOp = Callable[[Any, Any], Any]

#: (executor_id, object_id) pairs as returned by run_reduced_job
Holders = List[Tuple[int, Tuple[int, int]]]


class _Ops(NamedTuple):
    """One call's RDD and callbacks, as the stages pass them along."""

    rdd: RDD
    partial_func: Callable
    zero: Any
    seq_op: SeqOp
    merge_op: MergeOp
    split_op: SplitOp
    reduce_op: ReduceOp
    concat_op: ConcatOp


def split_aggregate(rdd: RDD, zero: Any, seq_op: SeqOp, split_op: SplitOp,
                    reduce_op: ReduceOp, concat_op: ConcatOp,
                    spec: Optional[AggregationSpec] = None, *,
                    merge_op: Optional[MergeOp] = None) -> Any:
    """Sparker's ``splitAggregate`` (blocking driver call).

    Returns the fully reduced value of type ``V`` (Figure 6: the action's
    result type is the segment type, produced by ``concatOp``).

    ``spec`` carries every reduction knob (see
    :class:`~repro.core.spec.AggregationSpec`): the collective algorithm
    (``"ring"`` | ``"hd"`` | ``"hierarchical"`` | ``"pipelined_ring"``, or
    ``"auto"`` to let the cost-model tuner pick algorithm and parallelism
    from the holders' actual wire sizes), the channel parallelism,
    topology awareness and the recovery policy. With none in the spec the
    policy is the context's armed fault controller's (``sc.faults``);
    when neither exists the aggregation runs unarmored.
    """
    spec = AggregationSpec.of(spec)
    sc = rdd.sc

    if merge_op is None:
        def merge_op(a: Any, b: Any) -> Any:  # noqa: F811 - documented default
            return reduce_op(split_op(a, 0, 1), split_op(b, 0, 1))

    if rdd.num_partitions() == 0:
        z = fresh_zero(zero)
        return concat_op([split_op(z, i, spec.parallelism)
                          for i in range(spec.parallelism)])

    armor = _Armor(sc, spec.recovery)
    if spec.compression != "none" and armor.recovery is not None:
        raise ValueError(
            'compression="topk" is incompatible with a recovery policy: '
            "error-feedback residuals live on the executors and die with "
            "them, so a recovered ring would silently lose compensation "
            "state. Disable compression or the recovery policy.")

    def partial_func(_idx: int, data: list, ctx: TaskContext) -> Any:
        return fold_partition(fresh_zero(zero), data, seq_op, ctx)

    ops = _Ops(rdd, partial_func, zero, seq_op, merge_op, split_op,
               reduce_op, concat_op)
    try:
        return _drive(sc, ops, spec, armor)
    finally:
        armor.release()


class _Armor:
    """The fault-tolerance state of one ``split_aggregate`` call, and what
    the call must give back — communicator, cook processes, death
    listeners, IMM aggregators — so :meth:`release` ends it the same way
    whether it returned or raised. Nothing here outlives the call.
    """

    def __init__(self, sc: Any, recovery: Any):
        self.sc = sc
        self.controller = sc.faults
        if recovery is None and self.controller is not None:
            recovery = self.controller.recovery
        #: the policy in effect; None = inert
        self.recovery = recovery
        #: per-chunk delivery fence of a streamed call, kept across rebuilds
        self.ledger: Optional[ChunkLedger] = None
        #: why the current collective was aborted (first cause wins)
        self.aborted: Optional[str] = None
        self.comm: Optional[ScalableCommunicator] = None
        self.cooks: list = []
        #: stage 1's job id and the collective's span, for recovery events
        self.job_id = self.span_id = -1
        #: span of the recovery epoch (first detection -> recovered); every
        #: recovery action and recompute job parents to it. Opened lazily
        #: so a fault-free run allocates nothing.
        self.epoch_span = -1
        self._watched: list = []
        #: every IMM aggregator the call created, for :meth:`release`
        self.held: Holders = []

    def survives(self, exc: Exception) -> bool:
        """Whether a rebuild can answer ``exc``: never when inert; under a
        policy everything — ExecutorLost (recv deadline or pinned-task
        failure), Interrupt (a death listener aborted the collective),
        StaleMergeError — except a retry budget already exhausted below,
        or a broken kernel."""
        return (self.recovery is not None
                and not isinstance(exc, (JobFailed, SimulationError)))

    def communicator(self, executor_ids: Sequence[int], spec: AggregationSpec,
                     parallelism: int) -> ScalableCommunicator:
        """The communicator of the next collective attempt."""
        sc = self.sc
        recovery = self.recovery
        comm = ScalableCommunicator(
            sc.cluster, parallelism=parallelism,
            topology_aware=spec.topology_aware,
            slots=_slots_for(sc, executor_ids), bus=sc.event_bus,
            faults=self.controller,
            recv_timeout=None if recovery is None else recovery.recv_timeout,
            chunk_bytes=spec.chunk_bytes, ledger=self.ledger)
        comm.set_span(self.span_id)
        self.comm, self.aborted = comm, None
        return comm

    def watch(self, executor_ids: Sequence[int]) -> None:
        """Abort the collective the instant one of its executors dies."""
        if self.recovery is None:
            return
        for executor_id in executor_ids:
            executor = self.sc.executor_by_id(executor_id)
            executor.add_death_listener(self._on_death)
            self._watched.append(executor)

    def _on_death(self, executor: Any) -> None:
        self.abort(f"executor {executor.executor_id} died mid-collective")

    def abort(self, reason: str) -> None:
        if self.aborted is None:
            self.aborted = reason
            self.comm.abort(reason)

    def dismiss(self) -> None:
        """Stop watching; interrupt whatever cook still waits on the fold."""
        for proc in self.cooks:
            if proc.is_alive:
                proc.interrupt(self.aborted or "split aggregation ended")
        self.cooks = []
        for executor in self._watched:
            executor.remove_death_listener(self._on_death)
        self._watched = []

    def stand_down(self) -> None:
        """End a collective attempt. Surviving ranks of a failed one would
        keep exchanging segments and burn NIC bandwidth under the rebuilt
        ring; a finished one has none left to interrupt."""
        if self.comm is not None:
            self.comm.abort(self.aborted or "collective ended")
        self.dismiss()

    def release(self) -> None:
        """Give everything back: ring, cooks, listeners, IMM aggregators."""
        self.stand_down()
        SpawnRDD.cleanup_holders(self.sc, self.held)
        self.held = []

    def emit(self, action: str, **kw: Any) -> None:
        """Record one recovery action on the controller and the bus."""
        bus = self.sc.event_bus
        if bus.active:
            tracer = bus.tracer
            if self.epoch_span < 0:
                self.epoch_span = tracer.new_span()
            if action == "recovered":
                # The epoch span closes on its own id, like JobEnd does.
                kw.update(span_id=self.epoch_span,
                          parent_span_id=self.span_id)
            else:
                kw.update(span_id=tracer.new_span(),
                          parent_span_id=self.epoch_span)
        event = RecoveryAction.fast(time=self.sc.now, action=action,
                                    job_id=self.job_id, **kw)
        if self.controller is not None:
            self.controller.actions.append(event)
        if bus.active:
            bus.emit(event)


def _drive(sc: Any, ops: _Ops, spec: AggregationSpec, armor: _Armor) -> Any:
    """The staged driver: plan -> fold -> stream or reduce -> collect."""
    env = sc.env
    tracer = sc.event_bus.tracer
    cid = sc.new_collective_id()
    algorithm, parallelism = spec.collective, spec.parallelism
    predicted, model = 0.0, None  # what only the tuner sets
    # A stream's window opens with the fold: the completed-span covers the
    # whole overlap, the number the overlap benchmark compares against
    # compute + reduce of the phased collectives.
    began = sc.now

    # ---- plan: the overlapped collective starts before the stage ----------
    streaming = algorithm == "pipelined_ring"
    if streaming:
        if sc.event_bus.active:
            tracer.open_collective(cid)
        armor.span_id = tracer.collective_span(cid)
        job, collective, on_plan = _open_stream(sc, ops, spec, armor)

    # ---- fold: reduced-result stage with in-memory merge ------------------
    with sc.stopwatch.span("agg.compute"):
        if streaming:
            holders, contributions = env.run(until=job)
        else:
            holders, contributions = sc.run_reduced_job(
                ops.rdd, ops.partial_func, ops.merge_op, detail=True)
    armor.held += holders
    armor.job_id = holders[0][1][0]

    # ---- stream: let a healthy overlapped collective finish ---------------
    if streaming:
        off_plan = armor.aborted is None and not on_plan(holders)
        if armor.aborted is None and not off_plan:
            with sc.stopwatch.span("agg.reduce"):
                _announce(sc, cid, "spec", holders, algorithm, parallelism)
                try:
                    result = env.run(until=collective)
                except Exception as exc:
                    # A recv timeout, a dropped link or a late crash; the
                    # armor downgrades it or lets it through.
                    if not armor.survives(exc):
                        raise
                    armor.abort(str(exc))
                else:
                    _finish_collective(sc, model, cid, algorithm,
                                       parallelism, predicted, began)
                    return result
        # The stream is lost: tear it down and downgrade to the reduce loop.
        detail = (armor.aborted
                  or "reduced-result stage landed off the planned executors")
        armor.abort(detail)
        try:
            env.run(until=collective)
        except SimulationError:
            raise
        except Exception:
            # What an abort leaves in the collective: its Interrupt, or the
            # fault that broke the stream. Kernel errors and
            # KeyboardInterrupt are neither.
            pass
        armor.dismiss()
        _emit_downgrade(
            sc, armor,
            "placement_deviation" if off_plan else "streamed_abort", detail)

    # ---- reduce: SpawnRDD + reduce-scatter + gather, until one succeeds ---
    with sc.stopwatch.span("agg.reduce"):
        if not streaming:
            if spec.compression != "none":
                # Sparsify before pricing: the tuner and the ring both see
                # the compressed wire sizes.
                _compress_holders(sc, spec, holders)
            algorithm, parallelism, predicted, model = _choose_collective(
                sc, spec, holders, cid)
            armor.span_id = tracer.collective_span(cid)
            began = sc.now
        result = _reduce(sc, ops, spec, armor, holders, contributions,
                         algorithm, parallelism)
        _finish_collective(sc, model, cid, algorithm, parallelism,
                           predicted, began)
    return result


def _slots_for(sc: Any, executor_ids: Sequence[int]) -> list:
    return [sc.executor_by_id(executor_id).slot
            for executor_id in executor_ids]


def _holder_value_bytes(sc: Any, holders: Holders) -> float:
    """Mean wire size of the holders' in-memory aggregators.

    This is the ``__sim_size__`` probe, so the density-adaptive sparse
    format prices at its actual encoded size — the tuner sees the same
    bytes the ring would put on the wire.
    """
    total = 0.0
    for executor_id, obj in holders:
        value = sc.executor_by_id(executor_id).object_manager.get(obj)
        total += sim_sizeof(value)
    return total / len(holders)


def _announce(sc: Any, cid: int, source: str, holders: Holders,
              algorithm: str, parallelism: int,
              predicted: float = 0.0) -> None:
    """Emit the collective's ``CollectiveChosen`` (traced runs only)."""
    bus = sc.event_bus
    if not bus.active:
        return
    slots = _slots_for(sc, [executor_id for executor_id, _ in holders])
    value_bytes = _holder_value_bytes(sc, holders)
    bus.emit(CollectiveChosen.fast(
        time=sc.now, collective_id=cid, algorithm=algorithm,
        parallelism=parallelism, source=source, ranks=len(slots),
        hosts=len({s.hostname for s in slots}), value_bytes=value_bytes,
        segment_bytes=value_bytes / (len(slots) * parallelism),
        predicted=predicted, span_id=bus.tracer.collective_span(cid),
        parent_span_id=bus.tracer.current_parent))


def _choose_collective(sc: Any, spec: AggregationSpec, holders: Holders,
                       cid: int) -> Tuple[str, int, float, Any]:
    """Decide a phased aggregation's ``(algorithm, parallelism)``.

    With ``spec.collective="auto"`` the cost model prices every
    ``algorithm x parallelism_candidates`` pair against the holders'
    measured wire sizes and placement; otherwise the spec's pinned choice
    passes straight through. Returns ``(algorithm, parallelism,
    predicted_seconds, model)`` — ``model`` is None unless the tuner ran
    (its prediction feeds the post-run calibration).

    The decision itself is driver-side Python: it schedules no simulation
    events, so a pinned-ring run remains bit-identical to the seed.
    """
    bus = sc.event_bus
    if spec.collective != "auto":
        if bus.active:
            bus.tracer.open_collective(cid)
        _announce(sc, cid, "spec", holders, spec.collective,
                  spec.parallelism)
        return spec.collective, spec.parallelism, 0.0, None

    from ..comm.cost import choose_collective, cost_model_for
    model = cost_model_for(sc)
    slots = _slots_for(sc, [executor_id for executor_id, _ in holders])
    algorithms = ["ring", "pipelined_ring", "hd"]
    if spec.topology_aware:
        algorithms.append("hierarchical")
    # Degraded holders slow every merge hop they participate in; the ring
    # runs at the pace of its slowest rank, so price the worst penalty.
    penalty = max(sc.health.compute_penalty(eid) for eid, _ in holders)
    winner, estimates = choose_collective(
        model, _holder_value_bytes(sc, holders), slots, algorithms,
        spec.parallelism_candidates, chunk_bytes=spec.chunk_bytes,
        compute_penalty=penalty)
    predicted = next(est for plan, est in estimates if plan is winner)
    if bus.active:
        cspan = bus.tracer.open_collective(cid)
        for plan, est in estimates:
            bus.emit(CollectiveCostEstimate.fast(
                time=sc.now, collective_id=cid, algorithm=plan.algorithm,
                parallelism=plan.parallelism, predicted=est,
                chosen=plan is winner,
                span_id=bus.tracer.new_span(), parent_span_id=cspan))
        _announce(sc, cid, "auto", holders, winner.algorithm,
                  winner.parallelism, predicted)
    return winner.algorithm, winner.parallelism, predicted, model


def _finish_collective(sc: Any, model: Any, cid: int, algorithm: str,
                       parallelism: int, predicted: float,
                       began: float) -> None:
    """Close the measurement window: calibrate the model, emit the span."""
    measured = sc.now - began
    if model is not None:
        model.observe(algorithm, predicted, measured)
    if sc.event_bus.active:
        sc.event_bus.emit(CollectiveCompleted.fast(
            time=sc.now, collective_id=cid, algorithm=algorithm,
            parallelism=parallelism, began=began, seconds=measured,
            predicted=predicted,
            span_id=sc.event_bus.tracer.close_collective(cid)))


def _reduce_once(sc: Any, ops: _Ops, spec: AggregationSpec, armor: _Armor,
                 holders: Holders, algorithm: str, parallelism: int) -> Any:
    """One SpawnRDD + reduce-scatter + gather pass over ``holders``.

    ``algorithm`` dispatches the reduce-scatter strategy by registry name
    (:mod:`repro.comm.collectives` — every strategy is bit-identical).
    A phased ``"pipelined_ring"`` is chunk-level wire/merge overlap with
    every aggregator already in hand: the degraded mode the tuner prices,
    and the rebuild mode of a lost stream, where the armor's ledger
    replays acknowledged chunk columns instead of the wire.
    """
    executor_ids = [executor_id for executor_id, _ in holders]
    comm = armor.communicator(executor_ids, spec, parallelism)
    spawned = SpawnRDD.from_holders(sc, holders)
    # The SpawnRDD launch validates static placement and reads each
    # executor's aggregator; its (cheap) results stay executor-side —
    # the ring operates on the very same in-memory objects.
    object_by_executor = dict(holders)
    values = [
        sc.executor_by_id(slot.executor_id).object_manager.get(
            object_by_executor[slot.executor_id])
        for slot in comm.ranked]
    spawn_results = sc.run_job(
        spawned, lambda _i, data, _ctx: len(data))
    if len(spawn_results) != len(holders):  # pragma: no cover
        raise RuntimeError("SpawnRDD lost partitions")

    armor.watch(executor_ids)
    try:
        proc = sc.env.process(comm.reduce_scatter_gather(
            values, ops.split_op, ops.reduce_op, ops.concat_op,
            algorithm=algorithm))
        return sc.env.run(until=proc)
    finally:
        armor.stand_down()


def _reduce(sc: Any, ops: _Ops, spec: AggregationSpec, armor: _Armor,
            holders: Holders, contributions: dict, algorithm: str,
            parallelism: int) -> Any:
    """Run :func:`_reduce_once` until an attempt succeeds.

    Inert armor makes this exactly one attempt whose exceptions propagate.
    Under a policy it is the module docstring's detect / recompute /
    rebuild loop, whatever the algorithm: every registered collective
    surfaces a lost peer as :class:`~repro.rdd.executor.ExecutorLost`
    (recv deadline) or an abort interrupt (death listener). Rebuilds keep
    the chosen ``algorithm`` — a shrunken ring is re-priced only on the
    next aggregation, keeping recovery on the well-trodden path.

    The armor's ledger (a lost stream's) is re-bound before each ring
    pass to a key of the exact holder set, parallelism and aggregation
    epoch: a retry over unchanged holders (link faults) salvages every
    acknowledged chunk column, while a crash — which changes the holder
    set or, via recompute, the epoch — clears the records, because the
    recomputed aggregators invalidate every prior partial reduction.
    """
    recovery = armor.recovery
    rdd, merge_op = ops.rdd, ops.merge_op
    budget = 1 if recovery is None else recovery.max_ring_attempts
    attempts = 0
    epoch = 0
    first_detect: Optional[float] = None
    tracer = sc.event_bus.tracer

    while attempts < budget:
        lost = [(eid, obj) for eid, obj in holders
                if not sc.executor_by_id(eid).alive]
        if lost and recovery is not None:
            if first_detect is None:
                first_detect = sc.now
            live = [(eid, obj) for eid, obj in holders
                    if sc.executor_by_id(eid).alive]
            lost_parts = sorted(
                p for eid, _ in lost for p in contributions.get(eid, ()))
            for eid, _ in lost:
                armor.emit("partial_recompute", executor_id=eid,
                           attempt=attempts, ranks=len(live),
                           detail=f"partitions {lost_parts} via lineage")
                contributions.pop(eid, None)
            # Lineage recompute: re-run the reduced-result stage over only
            # the dead holders' partitions. The scheduler places them on
            # surviving executors (and survives further losses itself).
            tracer.push_parent(armor.epoch_span)
            try:
                new_holders, new_contribs = sc.run_reduced_job(
                    rdd, ops.partial_func, merge_op, partitions=lost_parts,
                    detail=True)
            finally:
                tracer.pop_parent()
            armor.held += new_holders
            # Fence the surviving aggregators at a fresh epoch so any
            # zombie merge from the original stage raises StaleMergeError,
            # then absorb the recomputed partials.
            epoch += 1
            live_by_id = dict(live)
            for eid, obj in live:
                sc.executor_by_id(eid).object_manager.fence(obj, epoch)
            for eid, temp_obj in new_holders:
                executor = sc.executor_by_id(eid)
                manager = executor.object_manager
                temp_value = manager.get(temp_obj)
                if eid in live_by_id:
                    # The recomputed partial lands on an executor that
                    # already holds an original: merge the two in memory.
                    proc = sc.env.process(manager.absorb(
                        live_by_id[eid], epoch, temp_value, merge_op))
                    sc.env.run(until=proc)
                    manager.clear(temp_obj)
                    contributions[eid] = sorted(
                        contributions.get(eid, []) + new_contribs[eid])
                else:
                    # A fresh holder joins the ring with the recomputed
                    # partial as its aggregator.
                    manager.fence(temp_obj, epoch)
                    live.append((eid, temp_obj))
                    live_by_id[eid] = temp_obj
                    contributions[eid] = sorted(new_contribs[eid])
            holders = live
            # Re-check before ringing: a holder may have died during the
            # recompute job itself.
            continue
        if armor.ledger is not None:
            armor.ledger.bind((tuple(eid for eid, _ in holders),
                               parallelism, epoch), size=len(holders))
        try:
            result = _reduce_once(sc, ops, spec, armor, holders, algorithm,
                                  parallelism)
        except Exception as exc:
            # This ring attempt is dead; rebuild over the survivors if the
            # armor can answer the failure.
            if not armor.survives(exc):
                raise
            attempts += 1
            armor.emit("ring_abort", attempt=attempts, ranks=len(holders),
                       detail=str(exc))
            if first_detect is None:
                first_detect = sc.now
            if attempts < budget:
                armor.emit("ring_rebuild", attempt=attempts,
                           ranks=len(holders))
            continue
        if first_detect is not None:
            armor.emit("recovered", seconds=sc.now - first_detect,
                       attempt=attempts, ranks=len(holders))
        return result

    # ---- ring budget exhausted: fall back to the tree -------------------
    armor.emit("tree_fallback", site="tree", attempt=attempts)
    armor.release()
    if not recovery.tree_fallback:
        raise RuntimeError(
            f"split aggregation failed {attempts} ring attempts and tree "
            f"fallback is disabled")
    tracer.push_parent(armor.epoch_span)
    try:
        agg = tree_aggregate(rdd, ops.zero, ops.seq_op, merge_op,
                             depth=recovery.tree_depth, imm=True)
    finally:
        tracer.pop_parent()
    result = ops.concat_op([ops.split_op(agg, i, parallelism)
                            for i in range(parallelism)])
    if first_detect is not None:
        armor.emit("recovered", site="tree", seconds=sc.now - first_detect,
                   attempt=attempts)
    return result


# ---------------------------------------------------------------------------
# Opt-in top-k compression (the approximate tier)
# ---------------------------------------------------------------------------

def _topk_compress(spec: AggregationSpec, executor: Any, value: Any
                   ) -> Tuple[Any, float, dict]:
    """Sparsify one executor's merged aggregator before it hits the wire.

    Returns ``(compressed, cost_seconds, stats)``. The holder sparsifies
    itself (``value.topk(k, residual)``, which
    :class:`~repro.ml.aggregators.FlatAggregator` implements: only the
    payload is sparsified, the loss/weight stats always travel exact);
    this function picks ``k`` from the spec and keeps the carry. With
    ``error_feedback`` the unsent remainder accumulates in
    ``executor.residuals`` (keyed by payload size, cleared when the
    executor dies) and is added back before the next selection, so every
    coordinate is eventually transmitted.

    The sparsification itself costs one pass over the dense payload at
    the platform's merge bandwidth (select + subtract are both linear);
    the caller charges it as virtual time and emits the gauge.
    """
    import numpy as np

    topk = getattr(value, "topk", None)
    if topk is None:
        raise TypeError(
            f'compression="topk" needs a holder with a topk() method, such '
            f"as a FlatAggregator; got {type(value).__name__}")
    d = value.payload_size
    if spec.topk_k is not None:
        k = spec.topk_k
    else:
        k = max(1, int(round(spec.topk_ratio * d)))
    k = min(k, d) if d else 0
    key = ("topk", d)
    residual = executor.residuals.get(key) if spec.error_feedback else None
    comp, sent, remainder = topk(max(1, k), residual)
    if spec.error_feedback:
        executor.residuals[key] = remainder
    cost = (value.__sim_dense_size__()
            / executor.sc.cluster.config.merge_bandwidth)
    stats = {"k": int(k), "payload_size": int(d),
             "sent_norm": float(np.linalg.norm(sent)),
             "residual_norm": float(np.linalg.norm(remainder))}
    return comp, cost, stats


def _compress(sc: Any, spec: AggregationSpec, executor_id: int,
              obj: Tuple[int, int], parent_span: int):
    """Process body: sparsify one holder's aggregator in place."""
    executor = sc.executor_by_id(executor_id)
    value = executor.object_manager.get(obj)
    comp, cost, stats = _topk_compress(spec, executor, value)
    if cost > 0:
        yield sc.env.timeout(cost)
    executor.object_manager.replace(obj, comp)
    bus = sc.event_bus
    if bus.active:
        bus.emit(ResidualNorm.fast(
            time=sc.now, executor_id=executor_id, job_id=obj[0],
            error_feedback=spec.error_feedback,
            span_id=bus.tracer.new_span(),
            parent_span_id=parent_span, **stats))


def _compress_holders(sc: Any, spec: AggregationSpec,
                      holders: Holders) -> None:
    """Sparsify every holder in place (concurrently, blocking driver call).

    Runs between the reduced-result stage and a phased collective; a
    stream folds the same step into each executor's cook process instead
    so it overlaps the other executors' compute.
    """
    procs = [sc.env.process(_compress(sc, spec, eid, obj, -1),
                            name=f"topk:{eid}")
             for eid, obj in holders]
    for proc in procs:
        sc.env.run(until=proc)


# ---------------------------------------------------------------------------
# The overlapped (pipelined_ring) plan stage
# ---------------------------------------------------------------------------

def _open_stream(sc: Any, ops: _Ops, spec: AggregationSpec, armor: _Armor
                 ) -> Tuple[Any, Any, Callable[[Holders], bool]]:
    """Start the ring over the stage's *predicted* placement.

    A phased collective starts after *every* partition folded. Here the
    ring is constructed up front and each rank blocks on a per-executor
    readiness event; the partition-completion hook
    (:class:`ReducedResultTask`'s ``on_merged``) fires the event the
    instant the executor's last partition merges, so early finishers
    stream their chunk columns while stragglers are still folding. The
    merge order inside every ring is fixed by topology, not by readiness
    timing — the result is bit-identical to the classic ring.

    With ``compression="topk"`` the per-executor *cook* step sparsifies
    the aggregator between readiness and streaming, overlapping
    compression with the other executors' compute as well. Under a policy
    the stream is armored like any attempt, and the armor gets a
    :class:`ChunkLedger` that records each chunk column the moment all
    ranks finish reducing it.

    The ring is built over the stage's own placement, decided here and
    handed to the stage — exact as long as no task fails. Returns the
    spawned reduced-result job, the spawned collective, and
    ``on_plan(holders)``: whether the stage landed where the ring was
    built.
    """
    env = sc.env
    rdd = ops.rdd
    placement = sc.dag.place_stage(rdd, range(rdd.num_partitions()))
    expected = Counter(executor.executor_id
                       for executor in placement.executors)
    planned = list(expected)

    if armor.recovery is not None:
        # Epoch 0 of the chunk ledger: completions recorded by the stream
        # are salvageable by any rebuild over the same holders and epoch.
        armor.ledger = ChunkLedger()
        armor.ledger.bind((tuple(planned), spec.parallelism, 0),
                          size=len(planned))
    comm = armor.communicator(planned, spec, spec.parallelism)
    armor.watch(planned)

    counts = dict.fromkeys(planned, 0)
    merged: dict = {}
    complete = {executor_id: env.event(name=f"agg-complete:{executor_id}")
                for executor_id in planned}

    def on_merged(executor_id: int, _partition: int,
                  object_id: Tuple[int, int]) -> None:
        if armor.aborted is not None:
            # Merges of a resubmitted stage must not restart the stream.
            return
        merged[executor_id] = object_id
        counts[executor_id] = counts.get(executor_id, 0) + 1
        if counts[executor_id] == expected.get(executor_id):
            complete[executor_id].succeed()

    def cook(executor_id: int):
        yield complete[executor_id]
        if spec.compression != "none":
            yield from _compress(sc, spec, executor_id, merged[executor_id],
                                 armor.span_id)

    job = env.process(
        sc.dag.run_reduced_job(rdd, ops.partial_func, ops.merge_op,
                               sc.new_job_id(), detail=True,
                               on_merged=on_merged, placement=placement,
                               parent_span=sc.tracer.current_parent),
        name="reduced-job")
    # taken here, so given back here if the job ends before its stage ran
    job.add_callback(lambda _event: placement.release_all())
    cooks = {executor_id: env.process(cook(executor_id),
                                      name=f"cook:{executor_id}")
             for executor_id in planned}
    armor.cooks = list(cooks.values())
    # a rank streams when its executor's cook returns, and raises what the
    # cook raised (top-k on a holder without topk()): the cook process is
    # the readiness event
    stream = [
        (cooks[slot.executor_id],
         lambda eid=slot.executor_id:
         sc.executor_by_id(eid).object_manager.get(merged[eid]))
        for slot in comm.ranked]
    collective = env.process(
        comm.reduce_scatter_gather(None, ops.split_op, ops.reduce_op,
                                   ops.concat_op, algorithm="pipelined_ring",
                                   stream=stream),
        name="pipelined-collective")

    def on_plan(holders: Holders) -> bool:
        return ([executor_id for executor_id, _ in holders] == planned
                and all(counts.get(executor_id) == n
                        for executor_id, n in expected.items())
                and all(merged.get(executor_id) == obj
                        for executor_id, obj in holders))

    return job, collective, on_plan


#: downgrade reasons already warned about (warn once per process, per
#: reason; the event stream records every occurrence)
_downgrade_warned: set = set()


def _emit_downgrade(sc: Any, armor: _Armor, reason: str,
                    detail: str) -> None:
    """Record a pipelined→phased downgrade: obs event plus one warning."""
    bus = sc.event_bus
    if bus.active:
        bus.emit(CollectiveDowngraded.fast(
            time=sc.now, requested="pipelined_ring", actual="ring",
            reason=reason, job_id=armor.job_id, detail=detail,
            span_id=bus.tracer.new_span(), parent_span_id=armor.span_id))
    action = RecoveryAction.fast(time=sc.now, action="streamed_abort",
                                 site="pipelined", job_id=armor.job_id,
                                 detail=f"{reason}: {detail}",
                                 parent_span_id=armor.span_id)
    if armor.controller is not None:
        armor.controller.actions.append(action)
    if bus.active:
        bus.emit(action)
    if reason not in _downgrade_warned:
        _downgrade_warned.add(reason)
        warnings.warn(
            f"pipelined_ring downgraded to the phased path ({reason}): "
            f"{detail}. The result is unaffected; only the "
            f"compute/communication overlap is lost. Further downgrades "
            f"of this kind warn only on the event stream.",
            RuntimeWarning, stacklevel=2)
