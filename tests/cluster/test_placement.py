"""Tests for executor placement and the Cluster facade."""

from repro.cluster import Cluster, ClusterConfig
from repro.sim import Environment


def make(num_nodes=4):
    env = Environment()
    return env, Cluster(env, ClusterConfig.bic(num_nodes=num_nodes))


def test_executor_count_matches_config():
    _env, cluster = make(num_nodes=4)
    assert cluster.num_executors == 4 * 6
    assert cluster.total_cores == 4 * 6 * 4


def test_round_robin_placement():
    _env, cluster = make(num_nodes=4)
    for slot in cluster.executors:
        assert slot.node.node_id == slot.executor_id % 4


def test_driver_has_own_host_by_default():
    _env, cluster = make()
    assert cluster.driver_node.hostname == "driver-host"
    assert all(n is not cluster.driver_node for n in cluster.nodes)


def test_executors_on_node():
    _env, cluster = make(num_nodes=4)
    on_zero = [s for s in cluster.executors if s.node is cluster.nodes[0]]
    assert len(on_zero) == 6
    assert all(s.node.node_id == 0 for s in on_zero)


def test_id_sort_interleaves_nodes():
    _env, cluster = make(num_nodes=4)
    hosts = [s.hostname for s in cluster.executors]
    # Registration order interleaves: adjacent ranks are on different hosts.
    transitions = sum(1 for a, b in zip(hosts, hosts[1:]) if a != b)
    assert transitions == len(hosts) - 1
