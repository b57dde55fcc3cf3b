"""Tests for the Table 2 dataset registry and its scale factors."""

import numpy as np
import pytest

from repro.data import (
    DATASETS,
    PAPER_LDA_TOPICS,
    SURROGATE_LDA_TOPICS,
    DatasetSpec,
    dataset,
)
from repro.ml import LabeledPoint, SparseVector


def test_all_six_datasets_present():
    assert set(DATASETS) == {"avazu", "criteo", "kdd10", "kdd12", "enron",
                             "nytimes"}


def test_paper_scales_match_table2():
    assert DATASETS["avazu"].paper_samples == 45_006_431
    assert DATASETS["criteo"].paper_samples == 51_882_752
    assert DATASETS["kdd10"].paper_features == 20_216_830
    assert DATASETS["kdd12"].paper_features == 54_686_452
    assert DATASETS["enron"].paper_samples == 39_861
    assert DATASETS["nytimes"].paper_features == 102_660


def test_tasks_and_sources():
    for name in ("avazu", "criteo", "kdd10", "kdd12"):
        assert DATASETS[name].task == "classification"
        assert DATASETS[name].source == "libsvm"
    for name in ("enron", "nytimes"):
        assert DATASETS[name].task == "topic-model"
        assert DATASETS[name].source == "uci"


def test_size_scale_definition():
    spec = DATASETS["kdd10"]
    assert spec.size_scale == pytest.approx(
        spec.paper_features / spec.surrogate_features)
    lda = DATASETS["nytimes"]
    assert lda.size_scale == pytest.approx(
        (PAPER_LDA_TOPICS * lda.paper_features)
        / (SURROGATE_LDA_TOPICS * lda.surrogate_features))


def test_relative_aggregator_ordering_preserved():
    """kdd12 > kdd10 > avazu/criteo aggregators; nytimes > enron."""
    agg = {name: spec.paper_features * (
        PAPER_LDA_TOPICS if spec.task == "topic-model" else 1)
        for name, spec in DATASETS.items()}
    assert agg["kdd12"] > agg["kdd10"] > agg["avazu"] == agg["criteo"]
    assert agg["nytimes"] > agg["enron"]


def test_generate_classification():
    spec = DATASETS["avazu"]
    points, w = spec.generate()
    assert len(points) == spec.surrogate_samples
    assert all(isinstance(p, LabeledPoint) for p in points[:10])
    assert points[0].features.size == spec.surrogate_features
    assert w.shape == (spec.surrogate_features,)


def test_generate_topic_model():
    spec = DATASETS["enron"]
    docs, topics = spec.generate()
    assert len(docs) == spec.surrogate_samples
    assert all(isinstance(d, SparseVector) for d in docs[:10])
    assert topics.shape == (SURROGATE_LDA_TOPICS, spec.surrogate_features)


def test_generate_is_deterministic():
    a, _ = DATASETS["kdd12"].generate()
    b, _ = DATASETS["kdd12"].generate()
    for pa, pb in zip(a[:20], b[:20]):
        assert np.array_equal(pa.features.indices, pb.features.indices)
        assert np.array_equal(pa.features.values, pb.features.values)


def test_dataset_lookup():
    assert dataset("nytimes") is DATASETS["nytimes"]
    with pytest.raises(KeyError, match="unknown dataset"):
        dataset("mnist")


def test_unknown_task_rejected():
    spec = DatasetSpec(name="x", task="regression", source="y",
                       paper_samples=10, paper_features=10, paper_nnz=2,
                       surrogate_samples=10, surrogate_features=10,
                       surrogate_nnz=2)
    with pytest.raises(ValueError):
        spec.generate()


def test_str_rendering():
    text = str(DATASETS["avazu"])
    assert "45,006,431" in text
    assert "classification" in text


def test_compute_scale_regimes():
    # One surrogate kdd12 sample stands for tens of thousands of paper
    # samples; surrogates must never be larger than the paper data.
    for spec in DATASETS.values():
        assert spec.compute_scale > 10
        assert spec.surrogate_samples < spec.paper_samples
        assert spec.surrogate_features < spec.paper_features
