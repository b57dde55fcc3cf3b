"""AggregationSpec: defaults, validation, variants, entry points.

The spec is the engine's single configuration value; these tests pin its
contract — seed-identical defaults, the validation rules, ``replace``
variants, and ``spec=`` as the only way in at every entry point.
"""

import numpy as np
import pytest

from repro.core.spec import COLLECTIVES, DEFAULT_CHUNK_BYTES, AggregationSpec
from repro.serde import DEFAULT_SPARSE_POLICY, SparsePolicy


# ------------------------------------------------------------ construction
def test_defaults_are_seed_identical():
    spec = AggregationSpec()
    assert spec.collective == "ring"
    assert spec.parallelism == 4
    assert spec.topology_aware is True
    assert spec.sparse_policy is None  # dense
    assert not hasattr(spec, "batched")  # the columnar fold has no knob
    assert spec.recovery is None


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


def _first_segment(spec):
    from repro.ml.aggregators import FlatAggregator
    from repro.ml.linalg import SparseVector
    agg = FlatAggregator(400, policy=spec.sparse_policy)
    SparseVector(400, [3], [1.0]).add_to(agg.payload)
    return agg.split(0, 4)


def test_explicit_policy_implies_sparse_mode():
    # the policy is the whole switch, and the segments share its object
    policy = SparsePolicy(density_threshold=0.25)
    adaptive = _first_segment(AggregationSpec(sparse_policy=policy))
    dense = _first_segment(AggregationSpec())
    assert adaptive.is_sparse and adaptive.policy is policy
    assert not dense.is_sparse and dense.policy is None
    np.testing.assert_array_equal(adaptive.to_array(), dense.to_array())
    assert SparsePolicy() == DEFAULT_SPARSE_POLICY


def test_the_spec_has_one_field_per_knob_and_no_second_way_in():
    import repro.core
    fields = set(AggregationSpec.__dataclass_fields__)
    # the pool belongs to the context; a policy alone switches density
    assert not fields & {"host_pool", "sparse_aggregation"}
    for name in ("from_env", "to_dict", "from_dict",
                 "resolved_sparse_policy"):
        assert not hasattr(AggregationSpec, name)
    assert not [n for n in dir(repro.core) if n.startswith("resolve_")]


def test_replace_builds_variants_without_mutation():
    spec = AggregationSpec()
    variant = spec.replace(collective="hd", parallelism=8)
    assert (variant.collective, variant.parallelism) == ("hd", 8)
    assert spec.collective == "ring"  # frozen original untouched
    with pytest.raises(Exception):
        spec.parallelism = 2  # type: ignore[misc]


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

