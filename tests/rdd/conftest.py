"""Fixtures for dataflow-engine tests."""

import pytest

from repro.cluster import ClusterConfig
from repro.rdd import ModuloPartitioner, ShuffledRDD, SparkerContext


@pytest.fixture
def sc():
    """A small 2-node laptop-class context (8 cores total)."""
    return SparkerContext(ClusterConfig.laptop(num_nodes=2))


@pytest.fixture
def sc_bic():
    """A 2-node BIC context (48 cores)."""
    return SparkerContext(ClusterConfig.bic(num_nodes=2))


def combine_by_key(rdd, op, num_partitions=None):
    """The shuffle ``treeAggregate`` builds: integer-keyed pairs bucketed
    by ``key mod num_partitions`` and merged per key with ``op``, on the
    map side and again on the reduce side."""
    n = num_partitions or rdd.num_partitions()
    return ShuffledRDD(rdd, ModuloPartitioner(n), combine_op=op)
