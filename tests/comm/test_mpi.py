"""Correctness tests for the MPI reference collectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.comm import MPICH_RS_SHORT_THRESHOLD, MpiCommunicator
from repro.serde import SizedPayload
from repro.sim import Environment

from .conftest import make_values, reduce_op, split_op


def make_comm(n_ranks, num_nodes=2):
    env = Environment()
    cluster = Cluster(env, ClusterConfig.bic(num_nodes=num_nodes))
    comm = MpiCommunicator(cluster, slots=cluster.executors[:n_ranks])
    return env, comm


def collect_segments(owned):
    segments = {}
    for results in owned.values():
        segments.update(results)
    return np.concatenate([segments[i].data for i in sorted(segments)])


@pytest.mark.parametrize("algorithm", ["ring", "pairwise",
                                       "recursive_halving"])
@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4, 5, 7, 8])
def test_reduce_scatter_algorithms_exact(algorithm, n_ranks):
    env, comm = make_comm(n_ranks)
    values, expected = make_values(comm.size, elems=64, seed=n_ranks)
    proc = env.process(comm.reduce_scatter(values, split_op, reduce_op,
                                           algorithm=algorithm))
    owned = env.run(until=proc)
    np.testing.assert_allclose(collect_segments(owned), expected)


def test_recursive_halving_removes_extra_ranks():
    env, comm = make_comm(6)  # p2=4, rem=2 -> ranks 1 and 3 own nothing
    values, expected = make_values(6, elems=32)
    proc = env.process(comm.reduce_scatter(values, split_op, reduce_op,
                                           algorithm="recursive_halving"))
    owned = env.run(until=proc)
    empty = [r for r, res in owned.items() if not res]
    assert empty == [1, 3]
    np.testing.assert_allclose(collect_segments(owned), expected)


def test_auto_selection_follows_mpich_rule():
    _env, comm = make_comm(4)
    assert comm.select_reduce_scatter_algorithm(
        MPICH_RS_SHORT_THRESHOLD - 1) == "recursive_halving"
    assert comm.select_reduce_scatter_algorithm(
        MPICH_RS_SHORT_THRESHOLD) == "pairwise"


def test_reduce_scatter_auto_dispatch():
    env, comm = make_comm(4)
    # Large simulated size -> pairwise path.
    rng = np.random.default_rng(0)
    values = [SizedPayload(rng.standard_normal(32), sim_bytes=1e9)
              for _ in range(4)]
    expected = np.sum([v.data for v in values], axis=0)
    proc = env.process(comm.reduce_scatter(values, split_op, reduce_op))
    owned = env.run(until=proc)
    np.testing.assert_allclose(collect_segments(owned), expected)


def test_unknown_algorithm_rejected():
    env, comm = make_comm(4)
    values, _ = make_values(4)
    proc = env.process(comm.reduce_scatter(values, split_op, reduce_op,
                                           algorithm="bogus"))
    with pytest.raises(ValueError):
        env.run(until=proc)


def test_value_count_validation():
    env, comm = make_comm(4)
    values, _ = make_values(3)
    proc = env.process(comm.reduce_scatter(values, split_op, reduce_op))
    with pytest.raises(ValueError):
        env.run(until=proc)


def test_mpi_rank_placement_is_hostfile_order():
    env, comm = make_comm(12, num_nodes=2)
    hosts = [s.hostname for s in comm.ranked]
    assert hosts == sorted(hosts)


@settings(max_examples=10, deadline=None)
@given(
    n_ranks=st.integers(min_value=1, max_value=9),
    elems=st.integers(min_value=1, max_value=100),
    seed=st.integers(min_value=0, max_value=999),
)
def test_pairwise_matches_ring_property(n_ranks, elems, seed):
    """Property: every reduce-scatter algorithm computes the same sums."""
    results = []
    for algorithm in ("ring", "pairwise", "recursive_halving"):
        env, comm = make_comm(n_ranks)
        values, expected = make_values(comm.size, elems=elems, seed=seed)
        proc = env.process(comm.reduce_scatter(
            values, split_op, reduce_op, algorithm=algorithm))
        owned = env.run(until=proc)
        np.testing.assert_allclose(collect_segments(owned), expected)
        results.append(collect_segments(owned))
    np.testing.assert_allclose(results[0], results[1])
    np.testing.assert_allclose(results[0], results[2])
