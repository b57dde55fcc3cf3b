"""Pipelined ring: chunk columns, bit-identity, and streaming readiness.

The pipelined ring decomposes every channel into C independent chunk
sub-rings so wire time and merge time overlap within a hop. Each column
runs the unchanged classic ring over elementwise slices, so the final
bytes must equal the seed ring's exactly at every ring size, parallelism
and chunk count.
"""

import numpy as np
import pytest

from repro.cluster import MB, Cluster, ClusterConfig
from repro.comm import COLLECTIVE_ALGORITHMS, ScalableCommunicator
from repro.comm.ring import chunk_columns_for, pipelined_ring_reduce_scatter_rank
from repro.ml import aggregators
from repro.ml.aggregators import AggregatorSegment, FlatAggregator
from repro.ml.linalg import SparseVector
from repro.obs import ChunkStream, EventBus
from repro.serde import DEFAULT_SPARSE_POLICY, SizedPayload
from repro.sim import Environment

from .conftest import concat_op, make_values, reduce_op, split_op

RING_SIZES = [2, 3, 5, 8]


def chunk_bytes_for(num_chunks, n, parallelism, elems=64):
    """The ``chunk_bytes`` at which the largest of the ``n * parallelism``
    float64 segments of an ``elems``-long payload streams as ``num_chunks``
    columns (a segment one element shorter gets as many, up to its own
    length): half a column of slack keeps the ceiling off a float edge."""
    largest = 8.0 * -(-elems // (n * parallelism))
    return largest / (num_chunks - 0.5)


def run_gather(algorithm, n, parallelism=2, elems=64, seed=0, num_nodes=3,
               chunk_bytes=None, num_chunks=None, bus=None, pipeline=None):
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=num_nodes))
    if num_chunks is not None:
        chunk_bytes = chunk_bytes_for(num_chunks, n, parallelism, elems)
    tuning = {} if chunk_bytes is None else {"chunk_bytes": chunk_bytes}
    comm = ScalableCommunicator(cluster, parallelism=parallelism,
                                slots=cluster.executors[:n], bus=bus,
                                **tuning)
    values, expected = make_values(n, elems=elems, seed=seed)
    proc = env.process(comm.reduce_scatter_gather(
        values, split_op, reduce_op, concat_op, algorithm=algorithm,
        stream=None if pipeline is None else pipeline(env, comm)))
    result = env.run(until=proc)
    return result, expected, env.now


# ------------------------------------------------------------ name table
def test_registry_includes_pipelined_ring():
    assert "pipelined_ring" in COLLECTIVE_ALGORITHMS


# ---------------------------------------------------------- chunk count
def test_chunk_columns_respects_chunk_bytes():
    seg = SizedPayload(np.zeros(64), sim_bytes=16 * MB)
    assert chunk_columns_for(seg, 4 * MB) == 4
    assert chunk_columns_for(seg, 16 * MB) == 1
    assert chunk_columns_for(seg, None) == 1
    assert chunk_columns_for(seg, 0) == 1


def test_chunk_columns_capped_by_segment_length():
    seg = SizedPayload(np.zeros(3), sim_bytes=16 * MB)
    assert chunk_columns_for(seg, 1.0) == 3  # never more columns than elems


def test_chunk_columns_unsplittable_value_is_one_column():
    class Opaque:
        pass

    assert chunk_columns_for(Opaque(), 1.0) == 1


# --------------------------------------------------------- chunk slices
def test_payload_chunk_split_concat_roundtrip():
    value = SizedPayload(np.arange(10, dtype=float), sim_bytes=10 * MB)
    parts = [value.chunk_split(c, 3) for c in range(3)]
    assert sum(len(p.data) for p in parts) == 10
    back = parts[0].chunk_concat(parts)
    np.testing.assert_array_equal(back.data, value.data)
    assert back.sim_bytes == pytest.approx(value.sim_bytes)


def test_aggregator_segment_chunk_split_concat_roundtrip():
    buf = np.arange(12, dtype=float)
    seg = AggregatorSegment(buf, sim_bytes=96.0)
    parts = [seg.chunk_split(c, 4) for c in range(4)]
    assert sum(p.length for p in parts) == seg.length
    back = parts[0].chunk_concat(parts)
    np.testing.assert_array_equal(back.to_array(), buf)
    assert back.sim_bytes == pytest.approx(seg.sim_bytes)
    assert back.length == seg.length


# ---------------------------------------------------------- bit-identity
@pytest.mark.parametrize("n", RING_SIZES)
@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_bit_identical_to_ring(n, parallelism):
    baseline, expected, _ = run_gather("ring", n, parallelism)
    np.testing.assert_allclose(baseline.data, expected)
    # force several chunk columns: elems=64, split across ranks and chunks
    result, _, _ = run_gather("pipelined_ring", n, parallelism,
                              chunk_bytes=64.0)
    assert result.data.tobytes() == baseline.data.tobytes(), (
        f"pipelined_ring diverged from ring at n={n} P={parallelism}")


@pytest.mark.parametrize("num_chunks", [1, 2, 3, 7])
def test_bit_identical_at_forced_chunk_counts(num_chunks):
    baseline, _, _ = run_gather("ring", 5, 2)
    result, _, _ = run_gather("pipelined_ring", 5, 2,
                              num_chunks=num_chunks)
    assert result.data.tobytes() == baseline.data.tobytes()


def test_bit_identical_under_adversarial_values():
    """Catastrophic-cancellation values expose any re-association."""
    rng = np.random.default_rng(23)
    n, elems = 5, 48
    data = [rng.standard_normal(elems) * 10.0 ** rng.integers(
        -8, 8, size=elems) for _ in range(n)]

    def once(algorithm, **kw):
        env = Environment()
        cluster = Cluster(env, ClusterConfig.bic(num_nodes=3))
        comm = ScalableCommunicator(cluster, parallelism=2,
                                    slots=cluster.executors[:n], **kw)
        vals = [SizedPayload(d.copy()) for d in data]
        proc = env.process(comm.reduce_scatter_gather(
            vals, split_op, reduce_op, concat_op, algorithm=algorithm))
        return env.run(until=proc)

    ring = once("ring")
    pipe = once("pipelined_ring",
                chunk_bytes=chunk_bytes_for(4, n, 2, elems))
    assert pipe.data.tobytes() == ring.data.tobytes()


def _flat(dim, seed=None, adaptive=False):
    """A 16 MB trainer aggregator: a few hot entries, a dense last
    quarter and both statistics slots (adaptive: sparse segments first,
    dense ones last)."""
    agg = FlatAggregator(dim, size_scale=16 * MB / ((dim + 2) * 8.0),
                         policy=DEFAULT_SPARSE_POLICY if adaptive else None)
    if seed is not None:
        rng = np.random.default_rng(seed)
        tail = dim - dim // 4
        hot = np.sort(rng.choice(tail, size=dim // 16, replace=False))
        SparseVector(dim, hot, rng.standard_normal(hot.size) * 1e6).add_to(
            agg.payload)
        SparseVector(dim, np.arange(tail, dim),
                     rng.standard_normal(dim - tail)).add_to(agg.payload)
        agg.add_stats(rng.standard_normal(), float(seed + 1))
    return agg


@pytest.mark.parametrize("adaptive", [False, True])
def test_aggregator_segments_stream_in_columns_and_match_the_ring(adaptive):
    """The trainers' segment is chunkable: a 16 MB aggregator at
    chunk_bytes=1 MB streams in several columns per channel, to the
    ring's exact bytes, statistics slots included."""
    n, dim = 4, 94
    probe = _flat(dim, seed=0, adaptive=adaptive).split(0, n * 2)
    assert chunk_columns_for(probe, 1.0 * MB) == 2

    def once(algorithm, bus=None):
        env = Environment()
        cluster = Cluster(env, ClusterConfig.bic(num_nodes=3))
        comm = ScalableCommunicator(cluster, parallelism=2,
                                    slots=cluster.executors[:n], bus=bus,
                                    chunk_bytes=1.0 * MB)
        proc = env.process(comm.reduce_scatter_gather(
            [_flat(dim, seed=r, adaptive=adaptive) for r in range(n)],
            aggregators.split_op, aggregators.reduce_op,
            aggregators.concat_op, algorithm=algorithm))
        return env.run(until=proc)

    bus = EventBus()
    seen = []
    bus.subscribe(lambda e: seen.append(e.num_chunks)
                  if isinstance(e, ChunkStream) else None)
    ring, pipe = once("ring"), once("pipelined_ring", bus)
    assert seen and set(seen) == {2}
    assert pipe.buf.tobytes() == ring.buf.tobytes()
    assert pipe.weight_sum == ring.weight_sum == sum(range(1, n + 1))


# -------------------------------------------------------------- overlap
def test_chunking_never_slows_the_wire_dominated_ring():
    """With hops dominated by wire time, C columns overlap merge under
    the wire and the virtual clock must not exceed the classic ring by
    more than the per-chunk launch latency."""
    _, _, ring_t = run_gather("ring", 5, 2, elems=64)
    _, _, pipe_t = run_gather("pipelined_ring", 5, 2, elems=64,
                              num_chunks=4)
    assert pipe_t <= ring_t * 1.05


# ------------------------------------------------------------- streaming
def test_pipeline_ranks_wait_for_their_readiness_events():
    """Ranks stream as their events fire: the collective must not finish
    before the last readiness event, and must consume fetched values."""
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=3))
    n = 3
    comm = ScalableCommunicator(cluster, parallelism=1,
                                slots=cluster.executors[:n])
    values, expected = make_values(n, elems=32, seed=4)
    ready = [env.event(name=f"ready:{r}") for r in range(n)]
    release_times = [0.0, 0.3, 0.6]
    stream = [(ready[r], lambda r=r: values[r]) for r in range(n)]

    def releaser(r):
        yield env.timeout(release_times[r])
        ready[r].succeed()

    for r in range(n):
        env.process(releaser(r), name=f"release:{r}")
    proc = env.process(comm.reduce_scatter_gather(
        [None] * n, split_op, reduce_op, concat_op,
        algorithm="pipelined_ring", stream=stream))
    result = env.run(until=proc)
    np.testing.assert_allclose(result.data, expected)
    assert env.now >= max(release_times)


def test_streaming_result_matches_all_ready_result():
    """Readiness timing must not change the bytes: merge order is fixed
    by ring topology, not by arrival order."""
    baseline, _, _ = run_gather("pipelined_ring", 4, 2, seed=9,
                                num_chunks=3)

    def staggered(env, comm):
        pairs = []
        for r, slot in enumerate(comm.ranked):
            event = env.event(name=f"ready:{r}")
            delay = 0.1 * ((r * 7) % 4)

            def release(event=event, delay=delay):
                yield env.timeout(delay)
                event.succeed()

            env.process(release())
            values, _ = make_values(4, elems=64, seed=9)
            pairs.append((event, lambda r=r, values=values: values[r]))
        return pairs

    result, _, _ = run_gather("pipelined_ring", 4, 2, seed=9, num_chunks=3,
                              pipeline=staggered)
    assert result.data.tobytes() == baseline.data.tobytes()


# ------------------------------------------------------------ obs events
def test_chunk_stream_events_one_per_rank():
    bus = EventBus()
    seen = []
    bus.subscribe(lambda e: seen.append(e)
                  if isinstance(e, ChunkStream) else None)
    n, parallelism = 3, 2
    run_gather("pipelined_ring", n, parallelism, num_chunks=4, bus=bus)
    assert len(seen) == n
    assert {(e.num_chunks, e.lanes) for e in seen} == {(4, parallelism)}
    assert {e.rank for e in seen} == set(range(n))
    for e in seen:
        assert e.began <= e.time


def test_untraced_run_time_matches_traced_run_time():
    """Zero-perturbation: attaching a listener must not move the clock."""
    _, _, untraced = run_gather("pipelined_ring", 5, 2, num_chunks=4)
    bus = EventBus()
    bus.subscribe(lambda e: None)
    _, _, traced = run_gather("pipelined_ring", 5, 2, num_chunks=4,
                              bus=bus)
    assert traced == untraced


# ------------------------------------------------------- low-level kernel
def test_rank_kernel_single_rank_short_circuits():
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
    comm = ScalableCommunicator(cluster, parallelism=1,
                                slots=cluster.executors[:1])
    seg = SizedPayload(np.arange(8, dtype=float))
    proc = env.process(pipelined_ring_reduce_scatter_rank(
        comm.fabric, 0, 1, {0: (seg,)}, reduce_op,
        cluster.config.merge_bandwidth, 4))
    owned, (result,) = env.run(until=proc)
    assert owned == 0
    np.testing.assert_array_equal(result.data, seg.data)
