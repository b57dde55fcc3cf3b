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

Execution (§4.3): a **reduced-result stage** folds every partition and
merges task results per executor in memory (IMM), leaving exactly one
aggregator per executor; a **SpawnRDD** pins one task per holding executor;
those tasks run the PDR ring **reduce-scatter** over ``N * parallelism``
segments; the owned segments are collected to the driver and concatenated.

The executor-local IMM merge operates on whole aggregators, which is the
one operation the four SAI callbacks cannot express when ``U != V``; pass
``merge_op`` (MLlib's existing ``combOp``) for such types. When ``U`` and
``V`` coincide (Figure 7's arrays, the micro-benchmarks), the default
derives the merge from ``splitOp``/``reduceOp`` on the whole-object
segment.

Fault tolerance: with a :class:`~repro.faults.RecoveryPolicy` in effect
(via an armed :class:`~repro.faults.FaultController` or the ``recovery``
argument), the reduce step becomes a detect/recompute/rebuild loop:

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

The overlapped ``pipelined_ring`` collective runs the same loop through
:func:`_ft_pipelined_aggregate`: the stream itself is armored (recv
deadlines, death listeners, a per-chunk delivery ledger) and a mid-stream
fault downgrades to the phased loop above, where rebuilds replay only the
chunk columns the ledger has not acknowledged.

With no policy in effect the code path is the pre-fault-tolerance one,
statement for statement — an unfaulted run is bit-identical.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..comm.ring import ChunkLedger, ScalableCommunicator
from ..obs import CollectiveChosen, CollectiveCompleted, CollectiveCostEstimate, CollectiveDowngraded, RecoveryAction, ResidualNorm
from ..rdd.rdd import RDD
from ..rdd.scheduler import JobFailed
from ..rdd.task_context import TaskContext
from ..serde import sim_sizeof
from ..sim import SimulationError
from .aggregation import fold_partition, fresh_zero, tree_aggregate
from .spawn_rdd import SpawnRDD
from .spec import AggregationSpec, spec_with_legacy, warn_deprecated_kwarg

__all__ = ["split_aggregate"]

SeqOp = Callable[[Any, Any], Any]
SplitOp = Callable[[Any, int, int], Any]
ReduceOp = Callable[[Any, Any], Any]
ConcatOp = Callable[[Sequence[Any]], Any]
MergeOp = Callable[[Any, Any], Any]

#: (executor_id, object_id) pairs as returned by run_reduced_job
Holders = List[Tuple[int, Tuple[int, int]]]


def split_aggregate(rdd: RDD, zero: Any, seq_op: SeqOp, split_op: SplitOp,
                    reduce_op: ReduceOp, concat_op: ConcatOp,
                    spec: Optional[AggregationSpec] = None, *,
                    merge_op: Optional[MergeOp] = None,
                    parallelism: Optional[int] = None,
                    topology_aware: Optional[bool] = None,
                    recovery: Any = None) -> Any:
    """Sparker's ``splitAggregate`` (blocking driver call).

    Returns the fully reduced value of type ``V`` (Figure 6: the action's
    result type is the segment type, produced by ``concatOp``).

    ``spec`` carries every reduction knob (see
    :class:`~repro.core.spec.AggregationSpec`): the collective algorithm
    (``"ring"`` | ``"hd"`` | ``"hierarchical"``, or ``"auto"`` to let the
    cost-model tuner pick algorithm and parallelism from the holders'
    actual wire sizes), the channel parallelism, topology awareness and
    the recovery policy. The ``parallelism`` / ``topology_aware`` /
    ``recovery`` keywords (and an integer passed for ``spec``, the old
    positional parallelism) are deprecated shims mapping onto the spec.

    With no recovery policy in the spec one is taken from the context's
    armed fault controller (``sc.faults``); when neither exists the
    aggregation runs the original, recovery-free path.
    """
    if isinstance(spec, int):
        # the pre-spec signature's 7th positional argument
        warn_deprecated_kwarg("parallelism", "split_aggregate", stacklevel=3)
        spec = AggregationSpec(parallelism=spec)
    spec = spec_with_legacy(spec, "split_aggregate", stacklevel=4,
                            parallelism=parallelism,
                            topology_aware=topology_aware,
                            recovery=recovery)
    spec = AggregationSpec.from_env(spec)
    sc = rdd.sc

    if merge_op is None:
        def merge_op(a: Any, b: Any) -> Any:  # noqa: F811 - documented default
            return reduce_op(split_op(a, 0, 1), split_op(b, 0, 1))

    if rdd.num_partitions() == 0:
        z = fresh_zero(zero)
        return concat_op([split_op(z, i, spec.parallelism)
                          for i in range(spec.parallelism)])

    controller = getattr(sc, "faults", None)
    recovery = spec.recovery
    if recovery is None and controller is not None:
        recovery = controller.recovery

    if spec.compression != "none" and recovery is not None:
        raise ValueError(
            'compression="topk" is incompatible with a recovery policy: '
            "error-feedback residuals live on the executors and die with "
            "them, so a recovered ring would silently lose compensation "
            "state. Disable compression or the recovery policy.")

    # ---- stage 1: reduced-result stage with in-memory merge ---------------
    def partial_func(_idx: int, data: list, ctx: TaskContext) -> Any:
        return fold_partition(fresh_zero(zero), data, seq_op, ctx)

    if spec.collective == "pipelined_ring":
        # The overlapped path: stream each executor's finished aggregator
        # into the ring while other partitions are still folding.
        if recovery is None and controller is None:
            return _pipelined_aggregate(sc, rdd, partial_func, merge_op,
                                        spec, split_op, reduce_op, concat_op)
        if recovery is not None:
            # With a recovery policy the stream runs under full fault
            # tolerance: per-chunk delivery fencing lets a rebuilt ring
            # replay only the unacknowledged columns, and an unsalvageable
            # topology downgrades to the phased loop below.
            return _ft_pipelined_aggregate(sc, rdd, partial_func, merge_op,
                                           spec, zero, seq_op, split_op,
                                           reduce_op, concat_op, recovery,
                                           controller)
        # A controller without a recovery policy injects faults the
        # stream could not survive; run the phased path below instead.

    if recovery is None:
        with sc.stopwatch.span("agg.compute"):
            holders = sc.run_reduced_job(rdd, partial_func, merge_op)
        with sc.stopwatch.span("agg.reduce"):
            if spec.compression != "none":
                # Sparsify before pricing: the tuner and the ring both see
                # the compressed wire sizes.
                _compress_holders(sc, spec, holders)
            decision = _choose_collective(sc, spec, holders)
            cid, algorithm, chosen_p, predicted, model = decision
            began = sc.now
            result = _reduce_once(sc, holders, chosen_p,
                                  spec.topology_aware, split_op, reduce_op,
                                  concat_op, algorithm=algorithm,
                                  chunk_bytes=spec.chunk_bytes,
                                  span_id=sc.event_bus.tracer
                                  .collective_span(cid))
            _finish_collective(sc, model, cid, algorithm, chosen_p,
                               predicted, began)
        return result

    # ---- fault-tolerant path ----------------------------------------------
    with sc.stopwatch.span("agg.compute"):
        holders, contributions = sc.run_reduced_job(
            rdd, partial_func, merge_op, detail=True)
    with sc.stopwatch.span("agg.reduce"):
        decision = _choose_collective(sc, spec, holders)
        cid, algorithm, chosen_p, predicted, model = decision
        began = sc.now
        result = _ft_reduce(sc, rdd, partial_func, holders, contributions,
                            zero, seq_op, merge_op, chosen_p,
                            spec.topology_aware, split_op, reduce_op,
                            concat_op, recovery, controller,
                            algorithm=algorithm,
                            chunk_bytes=spec.chunk_bytes,
                            span_id=sc.event_bus.tracer
                            .collective_span(cid))
        _finish_collective(sc, model, cid, algorithm, chosen_p,
                           predicted, began)
    return result


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


def _choose_collective(sc: Any, spec: AggregationSpec, holders: Holders
                       ) -> Tuple[int, str, int, float, Any]:
    """Decide this aggregation's ``(algorithm, parallelism)``.

    With ``spec.collective="auto"`` the cost model prices every
    ``algorithm x parallelism_candidates`` pair against the holders'
    measured wire sizes and placement; otherwise the spec's pinned choice
    passes straight through. Returns ``(collective_id, algorithm,
    parallelism, predicted_seconds, model)`` — ``model`` is None unless
    the tuner ran (its prediction feeds the post-run calibration).

    The decision itself is driver-side Python: it schedules no simulation
    events, so a pinned-ring run remains bit-identical to the seed.
    """
    cid = getattr(sc, "_collective_seq", 0) + 1
    sc._collective_seq = cid
    bus = sc.event_bus
    if spec.collective != "auto":
        if bus.active:
            tracer = bus.tracer
            cspan = tracer.open_collective(cid)
            slots = _slots_for(sc, holders)
            value_bytes = _holder_value_bytes(sc, holders)
            num = len(slots) * spec.parallelism
            bus.emit(CollectiveChosen(
                time=sc.now, collective_id=cid, algorithm=spec.collective,
                parallelism=spec.parallelism, source="spec",
                ranks=len(slots), hosts=len({s.hostname for s in slots}),
                value_bytes=value_bytes,
                segment_bytes=value_bytes / num,
                span_id=cspan, parent_span_id=tracer.current_parent))
        return cid, spec.collective, spec.parallelism, 0.0, None

    from ..comm.cost import choose_collective, cost_model_for
    model = cost_model_for(sc)
    slots = _slots_for(sc, holders)
    value_bytes = _holder_value_bytes(sc, holders)
    algorithms = ["ring", "pipelined_ring", "hd"]
    if spec.topology_aware:
        algorithms.append("hierarchical")
    # Degraded holders slow every merge hop they participate in; the ring
    # runs at the pace of its slowest rank, so price the worst penalty.
    health = getattr(sc, "health", None)
    penalty = 1.0
    if health is not None:
        penalty = max((health.compute_penalty(eid) for eid, _ in holders),
                      default=1.0)
    winner, estimates = choose_collective(
        model, value_bytes, slots, algorithms, spec.parallelism_candidates,
        chunk_bytes=spec.chunk_bytes, compute_penalty=penalty)
    predicted = next(est for plan, est in estimates if plan is winner)
    if bus.active:
        tracer = bus.tracer
        cspan = tracer.open_collective(cid)
        for plan, est in estimates:
            bus.emit(CollectiveCostEstimate(
                time=sc.now, collective_id=cid, algorithm=plan.algorithm,
                parallelism=plan.parallelism, predicted=est,
                chosen=plan is winner,
                span_id=tracer.new_span(), parent_span_id=cspan))
        bus.emit(CollectiveChosen(
            time=sc.now, collective_id=cid, algorithm=winner.algorithm,
            parallelism=winner.parallelism, source="auto",
            ranks=winner.ranks, hosts=winner.num_hosts,
            value_bytes=value_bytes, segment_bytes=winner.segment_bytes,
            predicted=predicted,
            span_id=cspan, parent_span_id=tracer.current_parent))
    return cid, winner.algorithm, winner.parallelism, predicted, model


def _finish_collective(sc: Any, model: Any, cid: int, algorithm: str,
                       parallelism: int, predicted: float,
                       began: float) -> None:
    """Close the measurement window: calibrate the model, emit the span."""
    measured = sc.now - began
    if model is not None:
        model.observe(algorithm, predicted, measured)
    if sc.event_bus.active:
        sc.event_bus.emit(CollectiveCompleted(
            time=sc.now, collective_id=cid, algorithm=algorithm,
            parallelism=parallelism, began=began, seconds=measured,
            predicted=predicted,
            span_id=sc.event_bus.tracer.close_collective(cid)))


def _reduce_once(sc: Any, holders: Holders, parallelism: int,
                 topology_aware: bool, split_op: SplitOp,
                 reduce_op: ReduceOp, concat_op: ConcatOp, *,
                 algorithm: str = "ring",
                 faults: Any = None,
                 recv_timeout: Optional[float] = None,
                 watch_deaths: bool = False,
                 chunk_bytes: Optional[float] = None,
                 ledger: Optional[ChunkLedger] = None,
                 span_id: int = -1) -> Any:
    """One SpawnRDD + reduce-scatter + gather pass over ``holders``.

    The default arguments make this exactly the original reduce step;
    ``algorithm`` dispatches the reduce-scatter strategy by registry name
    (:mod:`repro.comm.collectives` — every strategy is bit-identical);
    ``watch_deaths`` additionally aborts the collective (interrupting all
    of its processes) the instant any holding executor dies, so a
    mid-collective crash surfaces immediately instead of via timeout.

    ``chunk_bytes`` sets the target chunk size on the communicator; only
    ``algorithm="pipelined_ring"`` reads it (chunk-level wire/merge
    overlap with every aggregator already in hand — the degraded mode the
    tuner prices, and the rebuild mode under fault tolerance).

    ``ledger`` threads a bound :class:`~repro.comm.ring.ChunkLedger`
    onto the communicator so a pipelined rebuild replays acknowledged
    chunk columns from their recorded reductions instead of the wire.
    """
    comm = ScalableCommunicator(sc.cluster, parallelism=parallelism,
                                topology_aware=topology_aware,
                                slots=_slots_for(sc, holders),
                                bus=sc.event_bus, faults=faults,
                                recv_timeout=recv_timeout)
    comm.set_span(span_id)
    if chunk_bytes is not None:
        comm.chunk_bytes = chunk_bytes
    if ledger is not None:
        comm.ledger = ledger
    spawned = SpawnRDD.from_holders(sc, holders)
    # The SpawnRDD launch validates static placement and reads each
    # executor's aggregator; its (cheap) results stay executor-side —
    # the ring operates on the very same in-memory objects.
    object_by_executor = dict(holders)
    values = []
    for slot in comm.ranked:
        executor = sc.executor_by_id(slot.executor_id)
        value = executor.object_manager.get(
            object_by_executor[slot.executor_id])
        values.append(value)
    spawn_results = sc.run_job(
        spawned, lambda _i, data, _ctx: len(data))
    if len(spawn_results) != len(holders):  # pragma: no cover
        raise RuntimeError("SpawnRDD lost partitions")

    watched = []
    if watch_deaths:
        def on_death(executor: Any) -> None:
            comm.abort(f"executor {executor.executor_id} died "
                       f"mid-collective")
        for executor_id, _ in holders:
            executor = sc.executor_by_id(executor_id)
            executor.add_death_listener(on_death)
            watched.append(executor)
    try:
        proc = sc.env.process(comm.reduce_scatter_gather(
            values, split_op, reduce_op, concat_op, algorithm=algorithm))
        result = sc.env.run(until=proc)
    except BaseException:
        if watch_deaths:
            # Kill any surviving ranks of the failed collective: zombies
            # would keep exchanging segments and burn NIC bandwidth under
            # the rebuilt ring.
            comm.abort("collective failed")
        raise
    finally:
        for executor in watched:
            executor.remove_death_listener(on_death)

    SpawnRDD.cleanup_holders(sc, holders)
    return result


def _slots_for(sc: Any, holders: Holders) -> list:
    slot_by_id = {slot.executor_id: slot
                  for slot in sc.cluster.executors}
    return [slot_by_id[executor_id] for executor_id, _ in holders]


def _ft_reduce(sc: Any, rdd: RDD, partial_func: Callable, holders: Holders,
               contributions: dict, zero: Any, seq_op: SeqOp,
               merge_op: MergeOp, parallelism: int, topology_aware: bool,
               split_op: SplitOp, reduce_op: ReduceOp, concat_op: ConcatOp,
               recovery: Any, controller: Any, *,
               algorithm: str = "ring",
               chunk_bytes: Optional[float] = None,
               ledger: Optional[ChunkLedger] = None,
               span_id: int = -1) -> Any:
    """The detect / recompute / rebuild loop of the fault-tolerant path.

    The loop is algorithm-agnostic: every registered collective surfaces
    a lost peer as :class:`~repro.rdd.executor.ExecutorLost` (recv
    deadline) or an abort interrupt (death listener), the rebuild
    re-ranks the survivors, and the recomputed partials absorb under the
    same epoch fence regardless of message topology. Rebuilds keep the
    chosen ``algorithm`` — a shrunken ring is re-priced only on the next
    aggregation, keeping recovery on the well-trodden path.

    ``ledger`` (pipelined only) carries per-chunk completion records
    across attempts. Before each ring pass it is re-bound to a key of
    the exact holder set, parallelism and aggregation epoch: a retry
    over unchanged holders (link faults) salvages every acknowledged
    chunk column, while a crash — which changes the holder set or, via
    recompute, the epoch — clears the records, because the recomputed
    aggregators invalidate every prior partial reduction.
    """
    agg_job = holders[0][1][0]  # stage 1's job id, for recovery events
    attempts = 0
    epoch = 0
    first_detect: Optional[float] = None
    #: span of the recovery epoch (first detection -> recovered); every
    #: recovery action and recompute job parents to it. Opened lazily so
    #: a fault-free run allocates nothing.
    epoch_span = -1

    def emit(action: str, **kw: Any) -> None:
        nonlocal epoch_span
        if sc.event_bus.active:
            tracer = sc.event_bus.tracer
            if epoch_span < 0:
                epoch_span = tracer.new_span()
            if action == "recovered":
                # The epoch span closes on its own id, like JobEnd does.
                kw.setdefault("span_id", epoch_span)
                kw.setdefault("parent_span_id", span_id)
            else:
                kw.setdefault("span_id", tracer.new_span())
                kw.setdefault("parent_span_id", epoch_span)
        event = RecoveryAction(time=sc.now, action=action, job_id=agg_job,
                               **kw)
        if controller is not None:
            controller.actions.append(event)
        if sc.event_bus.active:
            sc.event_bus.emit(event)

    while attempts < recovery.max_ring_attempts:
        lost = [(eid, obj) for eid, obj in holders
                if not sc.executor_by_id(eid).alive]
        if lost:
            if first_detect is None:
                first_detect = sc.now
            live = [(eid, obj) for eid, obj in holders
                    if sc.executor_by_id(eid).alive]
            lost_parts = sorted(
                p for eid, _ in lost for p in contributions.get(eid, ()))
            for eid, _ in lost:
                emit("partial_recompute", executor_id=eid, attempt=attempts,
                     ranks=len(live),
                     detail=f"partitions {lost_parts} via lineage")
                contributions.pop(eid, None)
            # Lineage recompute: re-run the reduced-result stage over only
            # the dead holders' partitions. The scheduler places them on
            # surviving executors (and survives further losses itself).
            tracer = sc.event_bus.tracer
            tracer.push_parent(epoch_span)
            try:
                new_holders, new_contribs = sc.run_reduced_job(
                    rdd, partial_func, merge_op, partitions=lost_parts,
                    detail=True)
            finally:
                tracer.pop_parent()
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
        if ledger is not None:
            ledger.bind((tuple(eid for eid, _ in holders), parallelism,
                         epoch), size=len(holders))
        try:
            result = _reduce_once(
                sc, holders, parallelism, topology_aware, split_op,
                reduce_op, concat_op, algorithm=algorithm,
                faults=controller, recv_timeout=recovery.recv_timeout,
                watch_deaths=True, chunk_bytes=chunk_bytes,
                ledger=ledger, span_id=span_id)
        except (JobFailed, SimulationError):
            # Retry budgets below this loop are already exhausted (or the
            # kernel itself broke): rebuilding the ring cannot help.
            raise
        except Exception as exc:
            # ExecutorLost (recv timeout or pinned-task failure), Interrupt
            # (a death listener aborted the collective), StaleMergeError —
            # all mean this ring attempt is dead; rebuild over survivors.
            attempts += 1
            emit("ring_abort", attempt=attempts, ranks=len(holders),
                 detail=str(exc))
            if first_detect is None:
                first_detect = sc.now
            if attempts < recovery.max_ring_attempts:
                emit("ring_rebuild", attempt=attempts, ranks=len(holders))
            continue
        if first_detect is not None:
            emit("recovered", seconds=sc.now - first_detect,
                 attempt=attempts, ranks=len(holders))
        return result

    # ---- ring budget exhausted: fall back to the tree -------------------
    emit("tree_fallback", site="tree", attempt=attempts)
    if not recovery.tree_fallback:
        SpawnRDD.cleanup_holders(sc, holders)
        raise RuntimeError(
            f"split aggregation failed {attempts} ring attempts and tree "
            f"fallback is disabled")
    SpawnRDD.cleanup_holders(sc, holders)
    tracer = sc.event_bus.tracer
    tracer.push_parent(epoch_span)
    try:
        agg = tree_aggregate(rdd, zero, seq_op, merge_op,
                             depth=recovery.tree_depth, imm=True)
    finally:
        tracer.pop_parent()
    result = concat_op([split_op(agg, i, parallelism)
                        for i in range(parallelism)])
    if first_detect is not None:
        emit("recovered", site="tree", seconds=sc.now - first_detect,
             attempt=attempts)
    return result


# ---------------------------------------------------------------------------
# Opt-in top-k compression (the approximate tier)
# ---------------------------------------------------------------------------

def _topk_compress(spec: AggregationSpec, executor: Any, value: Any
                   ) -> Tuple[Any, float, dict]:
    """Sparsify one executor's merged aggregator before it hits the wire.

    Returns ``(compressed, cost_seconds, stats)``. Only the payload is
    sparsified — the loss/weight stats slots always travel exact, so the
    convergence diagnostics stay trustworthy. With ``error_feedback`` the
    unsent remainder accumulates in ``executor.residuals`` (keyed by
    payload size, cleared when the executor dies) and is added back before
    the next selection, so every coordinate is eventually transmitted.

    The sparsification itself costs one pass over the dense payload at
    the platform's merge bandwidth (select + subtract are both linear);
    the caller charges it as virtual time and emits the gauge.
    """
    import numpy as np

    from ..ml.aggregators import FlatAggregator
    from ..serde import DEFAULT_SPARSE_POLICY, topk_sparsify

    if not isinstance(value, FlatAggregator):
        raise TypeError(
            f'compression="topk" needs a FlatAggregator holder, got '
            f"{type(value).__name__}")
    value.to_dense()
    d = value.payload_size
    payload = np.asarray(value.payload, dtype=np.float64)
    if spec.topk_k is not None:
        k = spec.topk_k
    else:
        k = max(1, int(round(spec.topk_ratio * d)))
    k = min(k, d) if d else 0
    key = ("topk", d)
    residual = executor.residuals.get(key) if spec.error_feedback else None
    if residual is not None:
        corrected = payload + residual
    else:
        corrected = payload.copy()
    idx, sent, remainder = topk_sparsify(corrected, max(1, k))
    if spec.error_feedback:
        executor.residuals[key] = remainder
    policy = value.policy or DEFAULT_SPARSE_POLICY
    comp = FlatAggregator(d, value.size_scale, policy=policy)
    comp.payload.scatter_add(idx, sent)
    comp.add_stats(value.loss_sum, value.weight_sum)
    cost = (value.__sim_dense_size__()
            / executor.sc.cluster.config.merge_bandwidth)
    stats = {"k": int(k), "payload_size": int(d),
             "sent_norm": float(np.linalg.norm(sent)),
             "residual_norm": float(np.linalg.norm(remainder))}
    return comp, cost, stats


def _compress_holders(sc: Any, spec: AggregationSpec, holders: Holders,
                      parent_span: int = -1) -> None:
    """Sparsify every holder in place (concurrently, blocking driver call).

    Runs between the reduced-result stage and the collective on the
    classic (non-pipelined) path; the pipelined path folds the same step
    into each executor's cook process instead so it overlaps the stream.
    """
    env = sc.env

    def one(executor_id: int, obj: Tuple[int, int]):
        executor = sc.executor_by_id(executor_id)
        value = executor.object_manager.get(obj)
        comp, cost, stats = _topk_compress(spec, executor, value)
        if cost > 0:
            yield env.timeout(cost)
        executor.object_manager.replace(obj, comp)
        bus = sc.event_bus
        if bus.active:
            bus.emit(ResidualNorm(
                time=sc.now, executor_id=executor_id, job_id=obj[0],
                error_feedback=spec.error_feedback,
                span_id=bus.tracer.new_span(),
                parent_span_id=parent_span, **stats))

    procs = [env.process(one(eid, obj), name=f"topk:{eid}")
             for eid, obj in holders]
    for proc in procs:
        env.run(until=proc)


# ---------------------------------------------------------------------------
# The pipelined (overlapped) aggregation path
# ---------------------------------------------------------------------------

def _plan_placement(sc: Any, rdd: RDD, partitions: Sequence[int]) -> List[int]:
    """Predict, driver-side, which executor each partition will land on.

    Mirrors :meth:`DAGScheduler._pick_executor` with an empty ``tried``
    set (including its skip of health-quarantined executors) — exact as
    long as no task fails. The plan lets the ring be built *before* the
    reduced-result stage finishes. If a fault makes the stage land
    anywhere else, the fault-tolerant wrapper detects the deviation
    after the fact and downgrades to the phased recovery loop.
    """
    alive = [e for e in sc.executors if e.alive]
    if not alive:
        raise RuntimeError("no alive executors in the cluster")
    health = getattr(sc, "health", None)

    def quarantined(executor_id: int) -> bool:
        return health is not None and health.is_quarantined(executor_id)

    pool = [e for e in alive if not quarantined(e.executor_id)] or alive
    plan: List[int] = []
    for position, partition in enumerate(partitions):
        pinned = rdd.pinned_executor(partition)
        if pinned is not None:
            plan.append(pinned)
            continue
        chosen: Optional[int] = None
        for executor_id in rdd.preferred_executors(partition):
            if (sc.executor_by_id(executor_id).alive
                    and not quarantined(executor_id)):
                chosen = executor_id
                break
        if chosen is None:
            chosen = pool[position % len(pool)].executor_id
        plan.append(chosen)
    return plan


def _pipelined_aggregate(sc: Any, rdd: RDD, partial_func: Callable,
                         merge_op: MergeOp, spec: AggregationSpec,
                         split_op: SplitOp, reduce_op: ReduceOp,
                         concat_op: ConcatOp) -> Any:
    """Overlap the reduced-result stage with the ring reduce-scatter.

    The classic path is strictly phased: *every* partition folds, then
    the collective starts. Here the ring is constructed up front from the
    predicted placement and each rank blocks on a per-executor readiness
    event; the partition-completion hook (:class:`ReducedResultTask`'s
    ``on_merged``) fires the event the instant the executor's last
    partition merges, so early finishers stream their chunk columns while
    stragglers are still folding. The merge order inside every ring is
    fixed by topology, not by readiness timing — the result is
    bit-identical to the classic ring.

    With ``compression="topk"`` a per-executor *cook* step sparsifies the
    aggregator between readiness and streaming, overlapping compression
    with the other executors' compute as well.

    If the stage lands partitions anywhere other than planned (impossible
    without faults; defensive), the collective is aborted and — provided
    nothing streamed yet — the reduction reruns on the classic path over
    the actual holders.
    """
    env = sc.env
    bus = sc.event_bus
    partitions = list(range(rdd.num_partitions()))
    plan = _plan_placement(sc, rdd, partitions)
    expected: dict = {}
    planned_order: List[int] = []
    for executor_id in plan:
        if executor_id not in expected:
            planned_order.append(executor_id)
            expected[executor_id] = 0
        expected[executor_id] += 1

    cid = getattr(sc, "_collective_seq", 0) + 1
    sc._collective_seq = cid
    if bus.active:
        bus.tracer.open_collective(cid)
    span_id = bus.tracer.collective_span(cid)

    slot_by_id = {slot.executor_id: slot for slot in sc.cluster.executors}
    slots = [slot_by_id[executor_id] for executor_id in planned_order]
    comm = ScalableCommunicator(sc.cluster, parallelism=spec.parallelism,
                                topology_aware=spec.topology_aware,
                                slots=slots, bus=bus)
    comm.set_span(span_id)
    comm.chunk_bytes = spec.chunk_bytes

    counts: dict = {executor_id: 0 for executor_id in expected}
    merged_objects: dict = {}
    complete = {executor_id: env.event(name=f"agg-complete:{executor_id}")
                for executor_id in planned_order}
    streamable = {executor_id: env.event(name=f"agg-ready:{executor_id}")
                  for executor_id in planned_order}

    def on_merged(executor_id: int, _partition: int,
                  object_id: Tuple[int, int]) -> None:
        merged_objects[executor_id] = object_id
        counts[executor_id] = counts.get(executor_id, 0) + 1
        if counts[executor_id] == expected.get(executor_id):
            event = complete.get(executor_id)
            if event is not None and not event.triggered:
                event.succeed()

    def cook(executor_id: int):
        yield complete[executor_id]
        if spec.compression != "none":
            executor = sc.executor_by_id(executor_id)
            obj = merged_objects[executor_id]
            value = executor.object_manager.get(obj)
            comp, cost, stats = _topk_compress(spec, executor, value)
            if cost > 0:
                yield env.timeout(cost)
            executor.object_manager.replace(obj, comp)
            if bus.active:
                bus.emit(ResidualNorm(
                    time=sc.now, executor_id=executor_id, job_id=obj[0],
                    error_feedback=spec.error_feedback,
                    span_id=bus.tracer.new_span(),
                    parent_span_id=span_id, **stats))
        streamable[executor_id].succeed()

    def fetch_value(executor_id: int) -> Any:
        return sc.executor_by_id(executor_id).object_manager.get(
            merged_objects[executor_id])

    comm.pipeline = [
        (streamable[slot.executor_id],
         lambda eid=slot.executor_id: fetch_value(eid))
        for slot in comm.ranked]

    began = sc.now
    job_id = sc.new_job_id()
    job_proc = env.process(
        sc.dag.run_reduced_job(rdd, partial_func, merge_op, job_id,
                               on_merged=on_merged),
        name="reduced-job")
    cooks = [env.process(cook(executor_id), name=f"cook:{executor_id}")
             for executor_id in planned_order]
    collective = env.process(
        comm.reduce_scatter_gather([None] * len(slots), split_op,
                                   reduce_op, concat_op,
                                   algorithm="pipelined_ring"),
        name="pipelined-collective")

    with sc.stopwatch.span("agg.compute"):
        holders = env.run(until=job_proc)

    deviated = (
        [executor_id for executor_id, _ in holders] != planned_order
        or any(counts.get(executor_id) != expected.get(executor_id)
               for executor_id in expected)
        or any(merged_objects.get(executor_id) != obj
               for executor_id, obj in holders))
    if deviated:  # pragma: no cover - impossible without faults
        comm.abort("pipelined placement deviated from the plan")
        try:
            env.run(until=collective)
        except BaseException:
            pass
        for proc in cooks:
            if proc.is_alive:
                proc.interrupt("pipelined placement deviated")
        if any(event.triggered for event in streamable.values()):
            raise RuntimeError(
                "pipelined ring streamed an aggregator from a deviated "
                "placement; cannot fall back safely")
        with sc.stopwatch.span("agg.reduce"):
            result = _reduce_once(sc, holders, spec.parallelism,
                                  spec.topology_aware, split_op, reduce_op,
                                  concat_op, algorithm="pipelined_ring",
                                  chunk_bytes=spec.chunk_bytes,
                                  span_id=span_id)
            _finish_collective(sc, None, cid, "pipelined_ring",
                               spec.parallelism, 0.0, began)
        return result

    if bus.active:
        value_bytes = _holder_value_bytes(sc, holders)
        num = len(slots) * spec.parallelism
        bus.emit(CollectiveChosen(
            time=sc.now, collective_id=cid, algorithm="pipelined_ring",
            parallelism=spec.parallelism, source="spec", ranks=len(slots),
            hosts=len({s.hostname for s in slots}),
            value_bytes=value_bytes, segment_bytes=value_bytes / num,
            span_id=span_id, parent_span_id=bus.tracer.current_parent))

    with sc.stopwatch.span("agg.reduce"):
        result = env.run(until=collective)
        # began is the *job* start: the completed-span covers the whole
        # overlapped window, which is the number the overlap benchmark
        # compares against compute + reduce of the phased paths.
        _finish_collective(sc, None, cid, "pipelined_ring",
                           spec.parallelism, 0.0, began)
    SpawnRDD.cleanup_holders(sc, holders)
    return result


# ---------------------------------------------------------------------------
# The fault-tolerant pipelined path
# ---------------------------------------------------------------------------

#: downgrade reasons already warned about (warn once per process, per
#: reason; the event stream records every occurrence)
_downgrade_warned: set = set()


def _emit_downgrade(sc: Any, controller: Any, reason: str, detail: str,
                    job_id: int, span_id: int) -> None:
    """Record a pipelined→phased downgrade: obs event plus one warning."""
    bus = sc.event_bus
    if bus.active:
        bus.emit(CollectiveDowngraded(
            time=sc.now, requested="pipelined_ring", actual="ring",
            reason=reason, job_id=job_id, detail=detail,
            span_id=bus.tracer.new_span(), parent_span_id=span_id))
    action = RecoveryAction(time=sc.now, action="streamed_abort",
                            site="pipelined", job_id=job_id,
                            detail=f"{reason}: {detail}",
                            parent_span_id=span_id)
    if controller is not None:
        controller.actions.append(action)
    if bus.active:
        bus.emit(action)
    if reason not in _downgrade_warned:
        _downgrade_warned.add(reason)
        warnings.warn(
            f"pipelined_ring downgraded to the phased fault-tolerant path "
            f"({reason}): {detail}. The result is unaffected; only the "
            f"compute/communication overlap is lost. Further downgrades "
            f"of this kind warn only on the event stream.",
            RuntimeWarning, stacklevel=2)


def _ft_pipelined_aggregate(sc: Any, rdd: RDD, partial_func: Callable,
                            merge_op: MergeOp, spec: AggregationSpec,
                            zero: Any, seq_op: SeqOp, split_op: SplitOp,
                            reduce_op: ReduceOp, concat_op: ConcatOp,
                            recovery: Any, controller: Any) -> Any:
    """The overlapped path under a recovery policy (the resilient stream).

    One streamed attempt runs exactly like :func:`_pipelined_aggregate`,
    but armored: ring recvs carry the policy's failure-detection timeout,
    every planned executor gets a death listener that aborts the
    collective the instant it dies, and a :class:`ChunkLedger` records
    each chunk column the moment all ranks finish reducing it.

    If the stream completes, the result (and, unfaulted, the timing) is
    identical to the fault-free pipelined path. If anything breaks —
    an executor crash (mid-stage or mid-ring), a link fault surfacing as
    a recv timeout, or a placement deviation — the stream is torn down
    and the aggregation downgrades to :func:`_ft_reduce`'s
    detect/recompute/rebuild loop, keeping ``algorithm="pipelined_ring"``
    and the ledger: a rebuild over the *same* holders and epoch (link
    faults) replays acknowledged columns from their recorded reductions
    and re-runs only the unacknowledged slices, while a crash re-keys
    the ledger (new holder set or recompute epoch) and replays from the
    epoch-fenced lineage recompute. Either way the result is
    byte-identical to the phased ring over the same data.
    """
    env = sc.env
    bus = sc.event_bus
    partitions = list(range(rdd.num_partitions()))
    plan = _plan_placement(sc, rdd, partitions)
    expected: dict = {}
    planned_order: List[int] = []
    for executor_id in plan:
        if executor_id not in expected:
            planned_order.append(executor_id)
            expected[executor_id] = 0
        expected[executor_id] += 1

    cid = getattr(sc, "_collective_seq", 0) + 1
    sc._collective_seq = cid
    if bus.active:
        bus.tracer.open_collective(cid)
    span_id = bus.tracer.collective_span(cid)

    slot_by_id = {slot.executor_id: slot for slot in sc.cluster.executors}
    slots = [slot_by_id[executor_id] for executor_id in planned_order]
    comm = ScalableCommunicator(sc.cluster, parallelism=spec.parallelism,
                                topology_aware=spec.topology_aware,
                                slots=slots, bus=bus, faults=controller,
                                recv_timeout=recovery.recv_timeout)
    comm.set_span(span_id)
    comm.chunk_bytes = spec.chunk_bytes
    # Epoch 0 of the chunk ledger: completions recorded by the stream are
    # salvageable by any rebuild over the same holders and epoch.
    ledger = ChunkLedger()
    ledger.bind((tuple(planned_order), spec.parallelism, 0),
                size=len(planned_order))
    comm.ledger = ledger

    aborted = {"failed": False, "reason": ""}

    def abort_stream(reason: str) -> None:
        if not aborted["failed"]:
            aborted["failed"] = True
            aborted["reason"] = reason
            comm.abort(reason)

    def on_death(executor: Any) -> None:
        abort_stream(f"executor {executor.executor_id} died mid-stream")

    watched = []
    for executor_id in planned_order:
        executor = sc.executor_by_id(executor_id)
        executor.add_death_listener(on_death)
        watched.append(executor)

    counts: dict = {executor_id: 0 for executor_id in expected}
    merged_objects: dict = {}
    complete = {executor_id: env.event(name=f"agg-complete:{executor_id}")
                for executor_id in planned_order}
    streamable = {executor_id: env.event(name=f"agg-ready:{executor_id}")
                  for executor_id in planned_order}

    def on_merged(executor_id: int, _partition: int,
                  object_id: Tuple[int, int]) -> None:
        if aborted["failed"]:
            # Merges of a resubmitted stage must not restart the stream.
            return
        merged_objects[executor_id] = object_id
        counts[executor_id] = counts.get(executor_id, 0) + 1
        if counts[executor_id] == expected.get(executor_id):
            event = complete.get(executor_id)
            if event is not None and not event.triggered:
                event.succeed()

    def cook(executor_id: int):
        # No compression leg here: compression="topk" is rejected with a
        # recovery policy at the entry of split_aggregate.
        yield complete[executor_id]
        streamable[executor_id].succeed()

    def fetch_value(executor_id: int) -> Any:
        return sc.executor_by_id(executor_id).object_manager.get(
            merged_objects[executor_id])

    comm.pipeline = [
        (streamable[slot.executor_id],
         lambda eid=slot.executor_id: fetch_value(eid))
        for slot in comm.ranked]

    began = sc.now
    job_id = sc.new_job_id()
    job_proc = env.process(
        sc.dag.run_reduced_job(rdd, partial_func, merge_op, job_id,
                               detail=True, on_merged=on_merged),
        name="reduced-job")
    cooks = [env.process(cook(executor_id), name=f"cook:{executor_id}")
             for executor_id in planned_order]
    collective = env.process(
        comm.reduce_scatter_gather([None] * len(slots), split_op,
                                   reduce_op, concat_op,
                                   algorithm="pipelined_ring"),
        name="pipelined-collective")

    def teardown(reason: str) -> None:
        abort_stream(reason)
        try:
            env.run(until=collective)
        except BaseException:  # noqa: BLE001 - the abort is the point
            pass
        for proc in cooks:
            if proc.is_alive:
                proc.interrupt(reason)
        for executor in watched:
            executor.remove_death_listener(on_death)

    with sc.stopwatch.span("agg.compute"):
        try:
            holders, contributions = env.run(until=job_proc)
        except BaseException:
            # Stage budget exhausted or driver teardown: recovery below
            # this level already failed; don't leave a zombie stream.
            teardown("reduced-result stage failed")
            raise

    deviated = (
        not aborted["failed"]
        and ([executor_id for executor_id, _ in holders] != planned_order
             or any(counts.get(executor_id) != expected.get(executor_id)
                    for executor_id in expected)
             or any(merged_objects.get(executor_id) != obj
                    for executor_id, obj in holders)))

    if not aborted["failed"] and not deviated:
        if bus.active:
            value_bytes = _holder_value_bytes(sc, holders)
            num = len(slots) * spec.parallelism
            bus.emit(CollectiveChosen(
                time=sc.now, collective_id=cid, algorithm="pipelined_ring",
                parallelism=spec.parallelism, source="spec",
                ranks=len(slots), hosts=len({s.hostname for s in slots}),
                value_bytes=value_bytes, segment_bytes=value_bytes / num,
                span_id=span_id, parent_span_id=bus.tracer.current_parent))
        with sc.stopwatch.span("agg.reduce"):
            try:
                result = env.run(until=collective)
            except (JobFailed, SimulationError):
                teardown("collective failed")
                raise
            except Exception as exc:
                # Recv timeout, dropped link, or a late crash: downgrade.
                aborted["reason"] = aborted["reason"] or str(exc)
                aborted["failed"] = True
            else:
                _finish_collective(sc, None, cid, "pipelined_ring",
                                   spec.parallelism, 0.0, began)
                for executor in watched:
                    executor.remove_death_listener(on_death)
                SpawnRDD.cleanup_holders(sc, holders)
                return result

    # ---- stream lost: downgrade to the phased recovery loop ---------------
    reason = "placement_deviation" if deviated else "streamed_abort"
    detail = (aborted["reason"]
              or "reduced-result stage landed off the planned executors")
    teardown(detail)
    _emit_downgrade(sc, controller, reason, detail, job_id, span_id)
    with sc.stopwatch.span("agg.reduce"):
        result = _ft_reduce(sc, rdd, partial_func, holders, contributions,
                            zero, seq_op, merge_op, spec.parallelism,
                            spec.topology_aware, split_op, reduce_op,
                            concat_op, recovery, controller,
                            algorithm="pipelined_ring",
                            chunk_bytes=spec.chunk_bytes, ledger=ledger,
                            span_id=span_id)
        _finish_collective(sc, None, cid, "pipelined_ring",
                           spec.parallelism, 0.0, began)
    return result
