"""The overlapped aggregation path: ``collective="pipelined_ring"``.

Contract: the orchestrated path streams each executor's finished
aggregator into the ring while other partitions still fold, yet the
final value is byte-identical to the phased ring, and tracing it
perturbs nothing.
"""

import hashlib

import numpy as np
import pytest

from repro import AggregationSpec
from repro.cluster import MB, ClusterConfig
from repro.faults import RecoveryPolicy
from repro.obs import ChunkStream, CollectiveChosen, CollectiveCompleted
from repro.rdd import SparkerContext
from repro.rdd.costing import Costed
from repro.serde import SizedPayload


def payload_split_args():
    return dict(
        seq_op=lambda a, x: a.merge_inplace(x),
        split_op=lambda u, i, n: u.split(i, n),
        reduce_op=lambda a, b: a.merge(b),
        concat_op=SizedPayload.concat,
    )


def run_agg(collective, *, nodes=3, parts=8, parallelism=2, elems=64,
            seed=0, sim_bytes=16 * MB, listener=None, seq_cost=None,
            chunk_bytes=None, cluster="bic"):
    config = (ClusterConfig.bic if cluster == "bic"
              else ClusterConfig.laptop)(num_nodes=nodes)
    sc = SparkerContext(config)
    if listener is not None:
        sc.event_bus.subscribe(listener)
    rng = np.random.default_rng(seed)
    data = [SizedPayload(rng.integers(-100, 100, elems).astype(float),
                         sim_bytes=sim_bytes)
            for _ in range(parts * 3)]
    rdd = sc.parallelize(data, parts).cache()
    rdd.count()
    args = payload_split_args()
    if seq_cost is not None:
        args["seq_op"] = Costed(args["seq_op"], seq_cost)
    kw = dict(collective=collective, parallelism=parallelism)
    if chunk_bytes is not None:
        kw["chunk_bytes"] = chunk_bytes
    began = sc.now
    result = rdd.split_aggregate(
        lambda: SizedPayload(np.zeros(elems), sim_bytes=sim_bytes),
        spec=AggregationSpec(**kw), **args)
    return sc, result, sc.now - began


def sha(result):
    return hashlib.sha256(
        np.ascontiguousarray(result.data).tobytes()).hexdigest()


# ---------------------------------------------------------- bit-identity
@pytest.mark.parametrize("parts", [2, 3, 5, 8])
@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_bit_identical_to_classic_ring(parts, parallelism):
    _, ring, _ = run_agg("ring", parts=parts, parallelism=parallelism)
    _, pipe, _ = run_agg("pipelined_ring", parts=parts,
                         parallelism=parallelism)
    assert sha(pipe) == sha(ring), (
        f"pipelined_ring diverged at parts={parts} P={parallelism}")


def test_bit_identical_with_small_chunks():
    _, ring, _ = run_agg("ring")
    _, pipe, _ = run_agg("pipelined_ring", chunk_bytes=1 * MB)
    assert sha(pipe) == sha(ring)


# ------------------------------------------------------ zero-perturbation
def test_tracing_perturbs_nothing():
    _, untraced_result, untraced_t = run_agg("pipelined_ring")
    events = []
    _, traced_result, traced_t = run_agg("pipelined_ring",
                                         listener=events.append)
    assert traced_t == untraced_t
    assert sha(traced_result) == sha(untraced_result)
    assert any(isinstance(e, ChunkStream) for e in events)
    chosen = [e for e in events if isinstance(e, CollectiveChosen)]
    assert chosen and chosen[0].algorithm == "pipelined_ring"
    assert chosen[0].source == "spec"
    done = [e for e in events if isinstance(e, CollectiveCompleted)]
    assert done and done[0].algorithm == "pipelined_ring"
    # the completed span covers the whole overlapped window
    assert done[0].seconds > 0


# --------------------------------------------------------------- overlap
def test_overlap_beats_phased_ring_on_staggered_compute():
    """Per-element seqOp cost staggers partition finish times; streaming
    early finishers must beat waiting for the last one."""
    kw = dict(parts=6, parallelism=2, sim_bytes=64 * MB, seq_cost=0.02,
              nodes=3)
    _, ring_result, ring_t = run_agg("ring", **kw)
    _, pipe_result, pipe_t = run_agg("pipelined_ring", **kw)
    assert sha(pipe_result) == sha(ring_result)
    assert pipe_t < ring_t


def test_balanced_cell_saves_a_quarter_and_auto_picks_the_stream():
    """BIC x2, 8 partitions of 4 items, 128 MB aggregators, P=2, 1 MB
    chunks; item i of 32 costs 0.09 * (1 + i/32) s to fold. Compute and
    the ring's reduce window are the same order, which is where the
    stream must pay: at least 25% off the phased ring (29.1% here), and
    the tuner must price that and choose it."""
    nbytes = 128 * MB
    rng = np.random.default_rng(1)
    data = [(SizedPayload(rng.random(64), sim_bytes=nbytes),
             0.09 * (1.0 + i / 32)) for i in range(32)]

    def run(listener=None, **spec):
        sc = SparkerContext(ClusterConfig.bic(num_nodes=2))
        if listener is not None:
            sc.event_bus.subscribe(listener)
        rdd = sc.parallelize(data, 8).cache()
        rdd.count()
        began = sc.now
        result = rdd.split_aggregate(
            lambda: SizedPayload(np.zeros(64), sim_bytes=nbytes),
            seq_op=Costed(lambda a, x: a.merge_inplace(x[0]),
                          lambda a, x: x[1]),
            split_op=lambda u, i, n: u.split(i, n),
            reduce_op=lambda a, b: a.merge(b),
            concat_op=SizedPayload.concat,
            spec=AggregationSpec(parallelism=2, **spec))
        return sc, result, sc.now - began

    sc, ring, ring_t = run(collective="ring")
    _, pipe, pipe_t = run(collective="pipelined_ring", chunk_bytes=1 * MB)
    assert sha(pipe) == sha(ring)
    balance = (sc.stopwatch.total("agg.compute")
               / sc.stopwatch.total("agg.reduce"))
    assert 0.4 < balance < 2.5
    assert 1.0 - pipe_t / ring_t >= 0.25
    events = []
    run(events.append, collective="auto", parallelism_candidates=(2,),
        chunk_bytes=1 * MB)
    chosen = next(e for e in events if isinstance(e, CollectiveChosen))
    assert chosen.algorithm == "pipelined_ring"


# ----------------------------------------------------------- bookkeeping
def test_object_managers_cleaned_up():
    sc, _, _ = run_agg("pipelined_ring")
    for executor in sc.executors:
        assert not executor.object_manager._entries


def test_stopwatch_phases_recorded():
    sc, _, _ = run_agg("pipelined_ring")
    assert sc.stopwatch.total("agg.compute") > 0
    assert sc.stopwatch.total("agg.reduce") > 0


def test_single_partition_single_holder():
    _, ring, _ = run_agg("ring", parts=1, parallelism=1)
    _, pipe, _ = run_agg("pipelined_ring", parts=1, parallelism=1)
    assert sha(pipe) == sha(ring)


# -------------------------------------------------- on_merged hook plumbing
def test_on_merged_hook_fires_per_partition():
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    data = [SizedPayload(np.ones(8)) for _ in range(6)]
    rdd = sc.parallelize(data, 6)
    calls = []
    holders = sc.run_reduced_job(
        rdd, lambda _i, chunk, _ctx: SizedPayload(
            np.sum([c.data for c in chunk], axis=0) if chunk
            else np.zeros(8)),
        lambda a, b: a.merge(b),
        on_merged=lambda eid, part, obj: calls.append((eid, part, obj)))
    assert len(calls) == 6
    assert {part for _, part, _ in calls} == set(range(6))
    by_executor = {}
    for eid, _, obj in calls:
        by_executor.setdefault(eid, set()).add(obj)
    # every executor reports exactly its one shared object
    assert dict((eid, {obj}) for eid, obj in holders) == by_executor


# ------------------------------------------------------- guard conditions
def test_compression_with_recovery_rejected():
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    rdd = sc.parallelize([SizedPayload(np.ones(8))], 1)
    with pytest.raises(ValueError, match="incompatible with a recovery"):
        rdd.split_aggregate(
            lambda: SizedPayload(np.zeros(8)),
            spec=AggregationSpec(compression="topk",
                                 recovery=RecoveryPolicy()),
            **payload_split_args())


def test_compression_needs_a_holder_with_topk():
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    rdd = sc.parallelize([SizedPayload(np.ones(8))], 1)
    with pytest.raises(TypeError, match="got SizedPayload"):
        rdd.split_aggregate(
            lambda: SizedPayload(np.zeros(8)),
            spec=AggregationSpec(compression="topk"),
            **payload_split_args())


def test_pipelined_under_fault_controller_still_correct():
    """A fault controller with a recovery policy routes through the
    fault-tolerant streamed path; with no faults in the plan the stream
    completes and the result stays exact."""
    from repro.faults import FaultController, FaultPlan

    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    FaultController(sc, FaultPlan(faults=(), seed=1),
                    RecoveryPolicy(max_ring_attempts=2)).arm()
    data = [SizedPayload(np.full(16, float(i + 1))) for i in range(6)]
    rdd = sc.parallelize(data, 6)
    result = rdd.split_aggregate(
        lambda: SizedPayload(np.zeros(16)),
        spec=AggregationSpec(collective="pipelined_ring", parallelism=2),
        **payload_split_args())
    np.testing.assert_array_equal(result.data,
                                  np.full(16, sum(range(1, 7))))
