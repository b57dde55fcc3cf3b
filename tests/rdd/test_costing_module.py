"""Focused tests for the cost-annotation layer used by every workload."""

import pytest

from repro.cluster import ClusterConfig
from repro.rdd import ELEMENT_OVERHEAD, Costed, SparkerContext


def test_element_overhead_constant_is_sane():
    # ~50ns per record: between raw iteration and JVM-boxed dispatch.
    assert 1e-9 < ELEMENT_OVERHEAD < 1e-6


def test_bulk_map_charges_scale_with_data():
    def run(n):
        sc = SparkerContext(ClusterConfig.laptop(num_nodes=1))
        sc.parallelize(range(n), 2).map(lambda x: x).count()
        return sc.now

    # 100k extra elements at ~50ns each: visible but modest.
    assert run(100_000) > run(10)


def test_costed_reduce_ops_charge_in_actions(sc):
    op = Costed(lambda a, b: a + b, 0.2)
    t0 = sc.now
    sc.reduce(sc.parallelize(range(4), 4), op)
    # Driver merges 4 partials: 3 merges x 0.2 at least.
    assert sc.now - t0 >= 0.6


def test_costed_in_tree_aggregate_seqop(sc):
    seq = Costed(lambda acc, x: acc + x, 0.1)
    t0 = sc.now
    sc.parallelize(range(8), 2).tree_aggregate(0, seq, lambda a, b: a + b)
    # 8 samples x 0.1s over 2 parallel partitions: >= 0.4s of compute.
    assert sc.now - t0 >= 0.4


def test_costed_zero_cost_is_free(sc):
    plain = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    plain.parallelize(range(8), 4).map(lambda x: x).count()
    annotated = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    annotated.parallelize(range(8), 4).map(Costed(lambda x: x, 0.0)).count()
    assert annotated.now == pytest.approx(plain.now)
