"""AggregationSpec: validation, env resolution, serialization.

The spec is the engine's single configuration value; these tests pin the
contract the rest of the PR leans on — seed-identical defaults, the
validation rules, exact dict round-trips (including nested policy /
recovery objects), SPARKER_* env overrides resolved in one place, and
``spec=`` as the only way in at every entry point.
"""

import pytest

from repro.core.spec import (
    COLLECTIVES,
    DEFAULT_CHUNK_BYTES,
    AggregationSpec,
    resolve_host_pool,
    resolve_sparse_policy,
)
from repro.faults import RecoveryPolicy
from repro.rdd.hostpool import HostPool
from repro.serde import DEFAULT_SPARSE_POLICY
from repro.serde.cost import SparsePolicy


# ------------------------------------------------------------ construction
def test_defaults_are_seed_identical():
    spec = AggregationSpec()
    assert spec.collective == "ring"
    assert spec.parallelism == 4
    assert spec.topology_aware is True
    assert spec.sparse_aggregation is False
    assert spec.sparse_policy is None
    assert not hasattr(spec, "batched")  # the columnar fold has no knob
    assert spec.recovery is None
    assert spec.host_pool is None


def test_collective_is_validated():
    for name in COLLECTIVES:
        if name == "hierarchical":
            AggregationSpec(collective=name, topology_aware=True)
        else:
            AggregationSpec(collective=name)
    with pytest.raises(ValueError, match="collective must be one of"):
        AggregationSpec(collective="butterfly")


def test_parallelism_must_be_positive():
    with pytest.raises(ValueError, match="parallelism must be >= 1"):
        AggregationSpec(parallelism=0)
    with pytest.raises(ValueError, match="parallelism_candidates"):
        AggregationSpec(parallelism_candidates=())
    with pytest.raises(ValueError, match="parallelism_candidates"):
        AggregationSpec(parallelism_candidates=(2, 0))


def test_candidates_normalize_to_tuple():
    spec = AggregationSpec(parallelism_candidates=[1, 2])
    assert spec.parallelism_candidates == (1, 2)


def test_hierarchical_requires_topology_aware():
    with pytest.raises(ValueError, match="topology_aware"):
        AggregationSpec(collective="hierarchical", topology_aware=False)


def test_explicit_policy_implies_sparse_mode():
    policy = SparsePolicy(density_threshold=0.25)
    spec = AggregationSpec(sparse_policy=policy)
    assert spec.sparse_aggregation is True
    assert spec.resolved_sparse_policy is policy


def test_resolved_policy_falls_back_to_the_single_default():
    assert AggregationSpec().resolved_sparse_policy is None
    on = AggregationSpec(sparse_aggregation=True)
    assert on.resolved_sparse_policy is DEFAULT_SPARSE_POLICY
    # and the free function agrees (it IS the same resolution site)
    assert resolve_sparse_policy(True, None) is DEFAULT_SPARSE_POLICY
    assert resolve_sparse_policy(False, None) is None


def test_replace_builds_variants_without_mutation():
    spec = AggregationSpec()
    variant = spec.replace(collective="hd", parallelism=8)
    assert (variant.collective, variant.parallelism) == ("hd", 8)
    assert spec.collective == "ring"  # frozen original untouched
    with pytest.raises(Exception):
        spec.parallelism = 2  # type: ignore[misc]


# ------------------------------------------------------------- environment
def test_from_env_with_nothing_set_is_identity():
    base = AggregationSpec(collective="hd")
    assert AggregationSpec.from_env(base, environ={}) is base


def test_from_env_overrides_every_knob():
    spec = AggregationSpec.from_env(environ={
        "SPARKER_COLLECTIVE": " AUTO ",
        "SPARKER_PARALLELISM": "8",
        "SPARKER_TOPOLOGY_AWARE": "off",
        "SPARKER_SPARSE_AGG": "1",
        "SPARKER_HOST_POOL": "3",
    })
    assert spec.collective == "auto"
    assert spec.parallelism == 8
    assert spec.topology_aware is False
    assert spec.sparse_aggregation is True
    assert spec.host_pool == 3


def test_resolve_host_pool_env_and_values(monkeypatch):
    monkeypatch.delenv("SPARKER_HOST_POOL", raising=False)
    monkeypatch.delenv("SPARKER_HOST_POOL_MODE", raising=False)
    assert resolve_host_pool(None) is None
    assert resolve_host_pool(1) is None  # <=1 workers: no pool
    pool = resolve_host_pool(2)
    assert isinstance(pool, HostPool) and pool.size == 2
    assert resolve_host_pool(pool) is pool  # pass-through

    monkeypatch.setenv("SPARKER_HOST_POOL", "3")
    env_pool = resolve_host_pool(None)
    assert isinstance(env_pool, HostPool) and env_pool.size == 3

    # mode "inline" forces the pool path even without a size
    monkeypatch.setenv("SPARKER_HOST_POOL", "0")
    monkeypatch.setenv("SPARKER_HOST_POOL_MODE", "inline")
    inline = resolve_host_pool(None)
    assert isinstance(inline, HostPool) and inline.mode == "inline"


# ------------------------------------------------------------ serialization
def test_dict_round_trip_defaults():
    spec = AggregationSpec()
    assert AggregationSpec.from_dict(spec.to_dict()) == spec


def test_dict_round_trip_with_nested_objects():
    spec = AggregationSpec(
        collective="hierarchical",
        parallelism=2,
        parallelism_candidates=(2, 4),
        sparse_policy=SparsePolicy(density_threshold=0.125),
        recovery=RecoveryPolicy(recv_timeout=0.5, max_ring_attempts=2),
    )
    record = spec.to_dict()
    back = AggregationSpec.from_dict(record)
    assert back.collective == "hierarchical"
    assert back.parallelism_candidates == (2, 4)
    assert back.sparse_policy == spec.sparse_policy
    assert back.recovery == spec.recovery
    # and the dict itself is JSON-ready
    import json
    assert AggregationSpec.from_dict(
        json.loads(json.dumps(record))) == back


def test_host_pool_serializes_as_worker_count():
    spec = AggregationSpec(host_pool=HostPool(2))
    assert spec.to_dict()["host_pool"] == 2
    assert AggregationSpec(host_pool=None).to_dict()["host_pool"] is None


def test_from_dict_ignores_unknown_keys():
    record = AggregationSpec().to_dict()
    record["future_field"] = 42
    assert AggregationSpec.from_dict(record) == AggregationSpec()


# ------------------------------------------------------------------ of
def test_of_passes_specs_through_and_defaults_none():
    spec = AggregationSpec(parallelism=2)
    assert AggregationSpec.of(spec) is spec
    assert AggregationSpec.of(None) == AggregationSpec()


def test_of_rejects_a_bare_parallelism():
    with pytest.raises(TypeError,
                       match=r"AggregationSpec\(parallelism=\.\.\.\)"):
        AggregationSpec.of(8)


def _entry_points():
    from repro import SparkerSession
    from repro.core import split_aggregate
    from repro.ml import (
        LDA,
        GradientDescent,
        LogisticRegressionWithSGD,
        SVMWithSGD,
    )
    from repro.rdd import RDD
    return [split_aggregate, RDD.split_aggregate, GradientDescent, LDA,
            LogisticRegressionWithSGD.train, SVMWithSGD.train,
            SparkerSession.run, SparkerSession.submit]


@pytest.mark.parametrize("entry", _entry_points(),
                         ids=lambda f: f.__qualname__)
def test_every_entry_point_takes_spec_and_no_legacy_keyword(entry):
    import inspect
    names = set(inspect.signature(entry).parameters)
    assert "spec" in names
    assert not names & {"parallelism", "topology_aware", "recovery",
                        "sparse_aggregation", "sparse_policy", "host_pool"}


def test_trainers_reject_a_bare_parallelism():
    from repro.ml import LDA, GradientDescent, LogisticGradient, SimpleUpdater
    with pytest.raises(TypeError, match="AggregationSpec"):
        GradientDescent(LogisticGradient(), SimpleUpdater(), spec=4)
    with pytest.raises(TypeError, match="AggregationSpec"):
        LDA(spec=4)


# ------------------------------------------- pipelined ring + approx tier
def test_pipelined_ring_is_a_valid_collective():
    assert "pipelined_ring" in COLLECTIVES
    spec = AggregationSpec(collective="pipelined_ring")
    assert spec.chunk_bytes == DEFAULT_CHUNK_BYTES


def test_compression_defaults_are_off():
    spec = AggregationSpec()
    assert spec.compression == "none"
    assert spec.topk_ratio == 0.01
    assert spec.topk_k is None
    assert spec.error_feedback is False


def test_chunk_bytes_must_be_positive():
    with pytest.raises(ValueError, match="chunk_bytes"):
        AggregationSpec(chunk_bytes=0)
    with pytest.raises(ValueError, match="chunk_bytes"):
        AggregationSpec(chunk_bytes=-1.0)


def test_compression_knobs_are_validated():
    with pytest.raises(ValueError, match="compression must be one of"):
        AggregationSpec(compression="zstd")
    with pytest.raises(ValueError, match="topk_ratio"):
        AggregationSpec(compression="topk", topk_ratio=0.0)
    with pytest.raises(ValueError, match="topk_ratio"):
        AggregationSpec(compression="topk", topk_ratio=1.5)
    with pytest.raises(ValueError, match="topk_k"):
        AggregationSpec(compression="topk", topk_k=0)
    with pytest.raises(ValueError, match="error_feedback"):
        AggregationSpec(error_feedback=True)  # needs compression="topk"


def test_chunk_bytes_env_override():
    spec = AggregationSpec.from_env(environ={"SPARKER_CHUNK_BYTES": "65536"})
    assert spec.chunk_bytes == 65536.0


def test_dict_round_trip_with_approx_tier():
    spec = AggregationSpec(collective="pipelined_ring", chunk_bytes=1e6,
                           compression="topk", topk_ratio=0.1, topk_k=32,
                           error_feedback=True)
    assert AggregationSpec.from_dict(spec.to_dict()) == spec
