"""Bit-identity and registry tests for the pluggable collective engine.

The contract every algorithm in :mod:`repro.comm.collectives` must meet:
for each global segment the final value is the seed ring's left-deep
reduction chain, so float64 results are *byte-identical* across
``ring`` / ``hd`` / ``hierarchical`` at any ring size and parallelism.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from repro import AggregationSpec
from repro.cluster import Cluster, ClusterConfig
from repro.comm import (
    ScalableCommunicator,
    available_collectives,
    get_collective,
)
from repro.comm.collectives import _ChainState, _owner_block
from repro.core import sai
from repro.faults import (
    AtRingHop,
    ExecutorCrash,
    FaultController,
    FaultPlan,
    RecoveryPolicy,
)
from repro.ml.aggregators import AggregatorSegment
from repro.rdd import SparkerContext
from repro.serde import DEFAULT_SPARSE_POLICY, SizedPayload
from repro.sim import Environment

from .conftest import concat_op, make_values, reduce_op, split_op

RING_SIZES = [2, 3, 5, 8]
ALGORITHMS = ["ring", "hd", "hierarchical", "pipelined_ring"]


def run_gather(algorithm, n, parallelism=2, elems=64, seed=0,
               num_nodes=3, topology_aware=True):
    """One full reduce_scatter_gather; returns the concatenated payload."""
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=num_nodes))
    comm = ScalableCommunicator(cluster, parallelism=parallelism,
                                topology_aware=topology_aware,
                                slots=cluster.executors[:n])
    values, expected = make_values(n, elems=elems, seed=seed)
    proc = env.process(comm.reduce_scatter_gather(
        values, split_op, reduce_op, concat_op, algorithm=algorithm))
    result = env.run(until=proc)
    return result, expected, env.now


# ------------------------------------------------------------- registry
def test_registry_lists_all_three():
    assert set(ALGORITHMS) <= set(available_collectives())


def test_unknown_algorithm_rejected():
    with pytest.raises(KeyError, match="unknown collective"):
        get_collective("quantum")


def test_hierarchical_requires_topology_aware():
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
    comm = ScalableCommunicator(cluster, parallelism=1,
                                topology_aware=False)
    with pytest.raises(ValueError, match="topology_aware"):
        get_collective("hierarchical").validate(comm)


# ---------------------------------------------------------- bit-identity
@pytest.mark.parametrize("n", RING_SIZES)
@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_bit_identical_to_ring(n, parallelism):
    baseline, expected, _ = run_gather("ring", n, parallelism)
    np.testing.assert_allclose(baseline.data, expected)
    for algorithm in ("hd", "hierarchical"):
        result, _, _ = run_gather(algorithm, n, parallelism)
        assert result.data.tobytes() == baseline.data.tobytes(), (
            f"{algorithm} diverged from ring at n={n} P={parallelism}")


@pytest.mark.parametrize("algorithm", ["hd", "hierarchical"])
def test_bit_identical_under_adversarial_values(algorithm):
    """Catastrophic-cancellation values expose any re-association."""
    rng = np.random.default_rng(11)
    n, parallelism, elems = 5, 2, 48
    values = [SizedPayload(rng.standard_normal(elems) * 10.0 ** rng.integers(
        -8, 8, size=elems)) for _ in range(n)]

    def once(algo):
        env = Environment()
        cluster = Cluster(env, ClusterConfig.bic(num_nodes=3))
        comm = ScalableCommunicator(cluster, parallelism=parallelism,
                                    slots=cluster.executors[:n])
        vals = [SizedPayload(v.data.copy()) for v in values]
        proc = env.process(comm.reduce_scatter_gather(
            vals, split_op, reduce_op, concat_op, algorithm=algo))
        return env.run(until=proc)

    assert once(algorithm).data.tobytes() == once("ring").data.tobytes()


def test_hd_faster_than_ring_at_scale():
    """Latency-bound regime: log2(n) rounds beat n-1 hops."""
    _, _, ring_t = run_gather("ring", 8, 2, num_nodes=2)
    _, _, hd_t = run_gather("hd", 8, 2, num_nodes=2)
    assert hd_t < ring_t


# ------------------------------------------- the chain, on generated cases
def _arrays(n, length, seed, adaptive):
    """One array per rank, magnitudes 1e-8..1e8 so any re-association
    shows; the adaptive ones mostly zeros, so segments start sparse."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(length) * 10.0 ** rng.integers(
        -8, 8, size=length) for _ in range(n)]
    if adaptive:
        for array in arrays:
            array[rng.random(length) < 0.8] = 0.0
    return arrays


def _payloads(arrays, adaptive):
    """Fresh per-rank values and the ops that go with them."""
    if not adaptive:
        return ([SizedPayload(a.copy()) for a in arrays], split_op,
                reduce_op, lambda seg: seg.data)
    values = [AggregatorSegment.sparse(
        a.size, np.flatnonzero(a), a[np.flatnonzero(a)], 8.0 * a.size,
        policy=DEFAULT_SPARSE_POLICY) for a in arrays]
    return (values, lambda v, i, k: v.chunk_split(i, k),
            lambda a, b: a.merge(b), lambda seg: seg.to_array())


def _chain(arrays, adaptive, n, parallelism):
    """The module docstring's reduction, with no ``repro.comm`` code: every
    global segment ``g`` (local ``j = g mod N``) is one left-deep chain in
    rank order from rank ``j``, contribution first, accumulator second."""
    values, split, reduce_, raw = _payloads(arrays, adaptive)
    num = n * parallelism
    out = {}
    for g in range(num):
        j = g % n
        acc = split(values[j], g, num)
        for step in range(1, n):
            acc = reduce_(split(values[(j + step) % n], g, num), acc)
        out[g] = raw(acc).tobytes()
    return out


def _reduce_scatter(algorithm, n, parallelism, values, split, reduce_,
                    stream=None, **tuning):
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=2))
    comm = ScalableCommunicator(cluster, parallelism=parallelism,
                                slots=cluster.executors[:n], **tuning)
    proc = env.process(comm.reduce_scatter(
        values, split, reduce_, algorithm=algorithm,
        stream=None if stream is None else stream(env)))
    return env, env.run(until=proc)


@settings(max_examples=40, deadline=None)
@given(n=strategies.integers(1, 9), parallelism=strategies.integers(1, 4),
       length=strategies.integers(1, 60),
       seed=strategies.integers(0, 2 ** 16), adaptive=strategies.booleans())
def test_every_collective_realizes_the_chain_bit_for_bit(
        n, parallelism, length, seed, adaptive):
    """ROADMAP 5d, one property now that the fan-out is shared: any rank
    count (non-powers of two included), any parallelism, payloads shorter
    than ``N * P`` (empty segments) or not divisible by it, dense and
    density-adaptive values — every registered algorithm owns every
    global segment exactly once, and its bytes are the chain's."""
    arrays = _arrays(n, length, seed, adaptive)
    expected = _chain(arrays, adaptive, n, parallelism)
    for algorithm in available_collectives():
        values, split, reduce_, raw = _payloads(arrays, adaptive)
        # 24 B chunks: pipelined_ring runs several columns where it can
        _, owned = _reduce_scatter(algorithm, n, parallelism, values, split,
                                   reduce_, chunk_bytes=24.0)
        got = {g: raw(seg).tobytes() for results in owned.values()
               for g, seg in results.items()}
        assert sum(len(results) for results in owned.values()) == len(got)
        assert got == expected, (algorithm, n, parallelism, length)


# ------------------------------------------------- the fan-out's edges
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_wrong_number_of_values_is_rejected(algorithm):
    values, _ = make_values(3)
    with pytest.raises(ValueError, match="expected 4 values"):
        _reduce_scatter(algorithm, 4, 2, values, split_op, reduce_op)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_single_rank_owns_its_own_split(algorithm):
    values, _ = make_values(1, elems=10)
    env, owned = _reduce_scatter(algorithm, 1, 3, values, split_op,
                                 reduce_op)
    assert set(owned) == {0} and sorted(owned[0]) == [0, 1, 2]
    for g, seg in owned[0].items():
        np.testing.assert_array_equal(seg.data, values[0].split(g, 3).data)
    assert env.now == 0.0  # nothing to send, nothing to merge


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_ranks_that_own_nothing_are_absent(algorithm):
    values, _ = make_values(3)
    _, owned = _reduce_scatter(algorithm, 3, 2, values, split_op, reduce_op)
    assert all(owned.values())
    assert sorted(g for results in owned.values() for g in results) == list(
        range(6))
    if algorithm == "hd":
        assert 2 not in owned  # the rank beyond 2^1 is folded away


@pytest.mark.parametrize("algorithm", ["ring", "pipelined_ring", "hd"])
def test_a_streamed_rank_waits_for_its_ready_event(algorithm):
    """A stream replaces ``values``: each rank enters at its own event
    with what its fetch returns then, and the bytes are the unstreamed
    run's (merge order is topology's, not arrival's)."""
    n = 4
    values, _ = make_values(n, seed=5)
    _, plain = _reduce_scatter(algorithm, n, 2, values, split_op, reduce_op)
    fetched_at = {}

    def stream(env):
        pairs = []
        for r in range(n):
            ready = env.timeout(0.1 * (n - r))  # rank 0 is ready last

            def fetch(r=r):
                fetched_at[r] = env.now
                return values[r]

            pairs.append((ready, fetch))
        return pairs

    env, owned = _reduce_scatter(algorithm, n, 2, None, split_op, reduce_op,
                                 stream=stream)
    assert fetched_at == {r: pytest.approx(0.1 * (n - r)) for r in range(n)}
    assert env.now > 0.4
    assert {g: seg.data.tobytes() for res in owned.values()
            for g, seg in res.items()} == {
        g: seg.data.tobytes() for res in plain.values()
        for g, seg in res.items()}


def test_hierarchical_refuses_a_stream():
    values, _ = make_values(2)
    with pytest.raises(ValueError, match="cannot take a stream"):
        _reduce_scatter("hierarchical", 2, 1, None, split_op, reduce_op,
                        stream=lambda env: [(env.event(), lambda: v)
                                            for v in values])


# ------------------------------------------------------------ chain state
def test_chain_state_folds_in_ring_order():
    calls = []

    def op(a, b):
        calls.append((a, b))
        return a + b

    st = _ChainState(start=2, size=4, lanes=1)
    st.add(3, (3.0,))
    st.add(1, (1.0,))  # out of order relative to the chain
    st.add(0, (0.25,))
    assert st.fold(op) == [0.0]
    assert not st.complete  # rank 2's own value has not arrived yet
    assert st.acc is None and not calls
    st.add(2, (20.0,))
    assert st.fold(op) == [30.0]  # three merged floats, 10 B each
    # chain from rank 2 walks 3, 0, 1: contribution FIRST, acc SECOND
    assert st.complete
    assert calls == [(3.0, 20.0), (0.25, 23.0), (1.0, 23.25)]
    assert st.acc == (24.25,)


def test_chain_state_folds_lane_by_lane():
    """Every value is the segment's lanes: one chain per lane, merge bytes
    and wire size counted per lane (the widest one sets a round's time)."""
    st = _ChainState(start=0, size=3, lanes=2)
    st.add(0, (1.0, np.zeros(4)))
    st.add(1, (2.0, np.ones(4)))
    st.add(2, (4.0, np.ones(4)))
    assert st.wire_size() == [30.0, 3 * (32.0 + 16.0)]
    merged = st.fold(lambda a, b: a + b)
    assert st.complete and merged == [20.0, 2 * (32.0 + 16.0)]
    assert st.acc[0] == 7.0 and st.acc[1].tolist() == [2.0] * 4
    assert st.wire_size() == [10.0, 48.0]


def test_chain_state_defers_non_prefix_contributions():
    st = _ChainState(start=1, size=3, lanes=1)
    st.add(1, (10.0,))
    st.add(0, (0.5,))  # last link of the chain: must stay pending
    st.fold(lambda a, b: a + b)
    assert st.acc == (10.0,) and st.count == 1
    assert st.pending == {0: (0.5,)}


def test_chain_state_export_absorb_roundtrip():
    op = lambda a, b: a + b  # noqa: E731
    src = _ChainState(start=1, size=3, lanes=1)
    src.add(1, (10.0,))
    src.add(0, (0.5,))
    src.fold(op)
    dst = _ChainState(start=1, size=3, lanes=1)
    dst.absorb(src.export())
    dst.add(2, (2.0,))
    dst.fold(op)
    assert dst.complete
    assert dst.acc == (0.5 + (2.0 + 10.0),)


def test_chain_state_rejects_two_folded_prefixes():
    st = _ChainState(start=0, size=2, lanes=1)
    st.acc, st.count = (1.0,), 1
    other = _ChainState(start=0, size=2, lanes=1)
    other.acc, other.count = (2.0,), 1
    with pytest.raises(RuntimeError, match="two folded prefixes"):
        st.absorb(other.export())


def test_owner_block_partitions_exactly():
    n, n2 = 7, 4
    blocks = [_owner_block(n, n2, owner) for owner in range(n2)]
    covered = [j for lo, hi in blocks for j in range(lo, hi)]
    assert covered == list(range(n))


# ------------------------------------------------------------ faulted runs
def _faulted_split_aggregate(algorithm):
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=4))
    victim = sc.executors[2].executor_id
    plan = FaultPlan(faults=(ExecutorCrash(victim, AtRingHop(1)),), seed=7)
    FaultController(sc, plan,
                    RecoveryPolicy(recv_timeout=0.25,
                                   max_ring_attempts=3)).arm()
    data = [SizedPayload(np.full(32, float(i + 1))) for i in range(8)]
    rdd = sc.parallelize(data, 8)
    zero = lambda: SizedPayload(np.zeros(32))  # noqa: E731
    result = rdd.split_aggregate(
        zero, lambda a, x: a.merge_inplace(x),
        lambda u, i, n: u.split(i, n),
        lambda a, b: a.merge(b),
        SizedPayload.concat,
        AggregationSpec(collective=algorithm, parallelism=2))
    return result.data


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_faulted_runs_recover_with_exact_sum(algorithm):
    expected = np.full(32, sum(range(1, 9)), dtype=float)
    announced = contextlib.nullcontext()
    if algorithm == "pipelined_ring":
        # A lost stream announces its downgrade, once per process and reason.
        sai._downgrade_warned.discard("streamed_abort")
        announced = pytest.warns(RuntimeWarning, match="streamed_abort")
    with announced:
        result = _faulted_split_aggregate(algorithm)
    np.testing.assert_array_equal(result, expected)
