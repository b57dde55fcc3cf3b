"""Tests for the host-time attribution profiler."""

from repro.bench.profile import (
    BUCKETS,
    SIM_CORE_SUBBUCKETS,
    HostTimeBreakdown,
    classify_path,
    classify_sim_core,
    profile_host,
)
from repro import SparkerSession
from repro.cluster import ClusterConfig


def test_classify_path_rules():
    assert classify_path("/x/src/repro/sim/core.py") == "sim_core"
    assert classify_path("/x/src/repro/cluster/flows.py") == "sim_core"
    assert classify_path("/x/src/repro/serde/sizeof.py") == "serde"
    assert classify_path("/x/src/repro/ml/aggregators.py") == "user_compute"
    assert classify_path("/lib/numpy/core/numeric.py") == "user_compute"
    assert classify_path("/somewhere/else.py") == "other"


def test_classify_sim_core_subrules():
    assert classify_sim_core("/x/src/repro/cluster/flows.py") == "allocator"
    assert classify_sim_core("/x/src/repro/sim/calendar.py") == "calendar"
    assert classify_sim_core("/x/src/repro/sim/core.py") == "dispatch"
    assert classify_sim_core("/x/src/repro/rdd/executor.py") == "dispatch"


def test_sim_core_split_partitions_the_bucket():
    _result, breakdown = profile_host(
        SparkerSession(ClusterConfig.bic(2)).run, "LR-A",
        aggregation="tree", iterations=1)
    assert set(breakdown.sim_core_split) == set(SIM_CORE_SUBBUCKETS)
    # The sub-buckets partition sim_core exactly.
    assert abs(sum(breakdown.sim_core_split.values())
               - breakdown.buckets["sim_core"]) < 1e-9
    # A real run touches both the allocator and the dispatch machinery.
    assert breakdown.sim_core_split["allocator"] > 0
    assert breakdown.sim_core_split["dispatch"] > 0
    payload = breakdown.as_dict()
    assert set(payload["sim_core_split"]) == set(SIM_CORE_SUBBUCKETS)
    assert abs(sum(payload["sim_core_fractions"].values()) - 1.0) < 1e-9
    assert "[sim_core:" in str(breakdown)


def test_profile_host_returns_result_and_buckets():
    result, breakdown = profile_host(
        SparkerSession(ClusterConfig.bic(2)).run, "LR-A",
        aggregation="tree", iterations=1)
    assert result.workload == "LR-A"
    assert isinstance(breakdown, HostTimeBreakdown)
    assert breakdown.total > 0
    assert set(breakdown.buckets) == set(BUCKETS)
    # A real run spends measurable time in the simulation kernel.
    assert breakdown.fraction("sim_core") > 0
    payload = breakdown.as_dict()
    assert payload["buckets"].keys() == breakdown.buckets.keys()
    assert payload["top"], "expected at least one hot function"


def test_fractions_sum_to_one():
    _result, breakdown = profile_host(
        SparkerSession(ClusterConfig.bic(2)).run, "LR-A",
        aggregation="tree", iterations=1)
    total = sum(breakdown.fraction(bucket) for bucket in BUCKETS)
    assert abs(total - 1.0) < 1e-9


def test_profile_host_propagates_exceptions():
    import pytest

    def boom():
        raise RuntimeError("intentional")

    with pytest.raises(RuntimeError, match="intentional"):
        profile_host(boom)
