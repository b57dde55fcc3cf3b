"""RDD transformation semantics, checked against plain-Python references."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.rdd import SparkerContext


def test_parallelize_collect_round_trip(sc):
    data = list(range(57))
    assert sc.parallelize(data, 7).collect() == data


def test_parallelize_preserves_order_across_partitions(sc):
    data = [f"x{i}" for i in range(23)]
    assert sc.parallelize(data, 5).collect() == data


def test_empty_rdd(sc):
    rdd = sc.parallelize([], 4)
    assert rdd.collect() == []
    assert rdd.count() == 0


def test_num_slices_validation(sc):
    with pytest.raises(ValueError):
        sc.parallelize([1, 2], 0)


def test_map(sc):
    assert sc.parallelize(range(10), 3).map(lambda x: x * x).collect() == \
        [x * x for x in range(10)]


def test_values(sc):
    rdd = sc.parallelize(range(6), 2).map(lambda x: (x % 2, x))
    assert rdd.values().collect() == list(range(6))


def test_sample_deterministic_and_bounded(sc):
    rdd = sc.parallelize(range(1000), 8)
    s1 = rdd.sample(0.3, seed=5).collect()
    s2 = rdd.sample(0.3, seed=5).collect()
    assert s1 == s2
    assert 150 < len(s1) < 450
    assert set(s1) <= set(range(1000))


def test_sample_fraction_validation(sc):
    with pytest.raises(ValueError):
        sc.parallelize(range(4), 2).sample(1.5)


def test_chained_transformations(sc):
    result = (sc.parallelize(range(30), 5)
              .map(lambda x: x + 1)
              .map(lambda y: (y % 2, -y))
              .values()
              .collect())
    assert result == [-(x + 1) for x in range(30)]


def test_lazy_evaluation_no_jobs_before_action(sc):
    rdd = sc.parallelize(range(10), 2).map(lambda x: x)
    assert sc.dag.stage_log == []
    rdd.collect()
    assert len(sc.dag.stage_log) == 1


def test_transformations_advance_virtual_time(sc):
    before = sc.now
    sc.parallelize(range(100), 8).map(lambda x: x * 2).collect()
    assert sc.now > before


@settings(max_examples=25, deadline=None)
@given(data=st.lists(st.integers(-100, 100), max_size=60),
       slices=st.integers(1, 12))
def test_map_property(data, slices):
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=1))
    result = (sc.parallelize(data, slices)
              .map(lambda x: x * 3)
              .map(lambda x: x - 1)
              .collect())
    assert result == [x * 3 - 1 for x in data]
