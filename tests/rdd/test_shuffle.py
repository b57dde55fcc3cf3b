"""The keyed shuffle ``treeAggregate`` builds: map-side and reduce-side
combining, map-output reuse, and shuffles chained in one lineage."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.rdd import ModuloPartitioner, SparkerContext

from .conftest import combine_by_key


def test_shuffle_then_transform(sc):
    result = combine_by_key(
        sc.parallelize([(i % 5, i) for i in range(50)], 10), operator.add
    ).map(lambda kv: (kv[0], kv[1] // 10)).collect()
    assert sorted(result) == [(k, sum(range(k, 50, 5)) // 10)
                              for k in range(5)]


def test_chained_shuffles(sc):
    # Two shuffles in one lineage: counts per key, then a histogram of
    # the counts.
    keys = [0, 1, 0, 2, 1, 0] * 3
    counts = combine_by_key(sc.parallelize(keys, 4).map(lambda k: (k, 1)),
                            operator.add)
    histogram = combine_by_key(counts.map(lambda kv: (kv[1], 1)),
                               operator.add)
    assert sorted(histogram.collect()) == [(3, 1), (6, 1), (9, 1)]


def test_shuffle_reuses_map_outputs(sc):
    rdd = combine_by_key(sc.parallelize([(i % 2, 1) for i in range(8)], 4),
                         operator.add)
    rdd.collect()
    stages_after_first = len(sc.dag.stage_log)
    rdd.collect()
    # Second action reuses the registered map outputs: only a result stage.
    new_stages = sc.dag.stage_log[stages_after_first:]
    assert [s.kind for s in new_stages] == ["result"]


def test_map_side_combine_reduces_shuffle_volume(sc_bic):
    sc = sc_bic
    data = [(i % 2, 1) for i in range(4000)]
    combine_by_key(sc.parallelize(data, 8), operator.add).collect()
    # With map-side combining, at most partitions*keys records cross the
    # wire (8 * 2 = 16), not 4000.
    total_bucket_records = sum(
        len(bucket[0])
        for executor in sc.executors
        for bucket in executor.shuffle_store._buckets.values())
    assert total_bucket_records <= 16


def test_modulo_partitioner_places_key_k_in_partition_k(sc):
    out = combine_by_key(sc.parallelize([(i % 4, 1) for i in range(40)], 8),
                         operator.add, num_partitions=4)
    chunks = sc.run_job(out, lambda _i, data, _ctx: list(data))
    assert [sorted(chunk) for chunk in chunks] == [[(k, 10)] for k in range(4)]


def test_partitioner_validation():
    assert ModuloPartitioner(4).partition(9) == 1
    with pytest.raises(ValueError):
        ModuloPartitioner(0)


def test_shuffle_after_cache(sc):
    base = sc.parallelize([(i % 3, i) for i in range(30)], 6).cache()
    base.count()
    out = combine_by_key(base, operator.add)
    assert sorted(out.collect()) == [
        (k, sum(range(k, 30, 3))) for k in range(3)]


@settings(max_examples=20, deadline=None)
@given(pairs=st.lists(
    st.tuples(st.integers(0, 9), st.integers(-50, 50)), max_size=60),
    slices=st.integers(1, 8))
def test_keyed_shuffle_matches_dict_reference(pairs, slices):
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=1))
    result = dict(combine_by_key(sc.parallelize(pairs, slices),
                                 operator.add).collect())
    expected = {}
    for k, v in pairs:
        expected[k] = expected.get(k, 0) + v
    assert result == expected
