"""Tests for the nine-workload harness (reduced-scale runs)."""

import pytest

from repro import SparkerSession
from repro.bench import WORKLOADS
from repro.cluster import ClusterConfig

LAPTOP2 = ClusterConfig.laptop(num_nodes=2)


def test_nine_workloads_registered():
    assert set(WORKLOADS) == {"LDA-E", "LDA-N", "LR-A", "LR-C", "LR-K",
                              "SVM-A", "SVM-C", "SVM-K", "SVM-K12"}


def test_workload_model_dataset_pairing():
    assert WORKLOADS["LDA-N"].model == "lda"
    assert WORKLOADS["LDA-N"].dataset_name == "nytimes"
    assert WORKLOADS["SVM-K12"].dataset_name == "kdd12"
    assert WORKLOADS["LR-K"].dataset_name == "kdd10"


def test_svm_uses_table3_regparam():
    for name in ("SVM-A", "SVM-C", "SVM-K", "SVM-K12"):
        assert WORKLOADS[name].reg_param == 0.01
        assert WORKLOADS[name].mini_batch_fraction == 1.0
    for name in ("LR-A", "LR-C", "LR-K"):
        assert WORKLOADS[name].reg_param == 0.0


def test_run_returns_consistent_result():
    result = SparkerSession(LAPTOP2).run("LR-A", iterations=2)
    assert result.workload == "LR-A"
    assert result.iterations == 2
    assert result.end_to_end > 0
    assert result.breakdown.total == pytest.approx(result.end_to_end,
                                                   rel=1e-6)
    assert result.final_loss > 0


def test_run_lda():
    result = SparkerSession(LAPTOP2).run("LDA-E", iterations=1)
    assert result.breakdown.agg_compute > 0
    assert result.breakdown.driver > 0


def test_run_split_backend_changes_time_not_semantics():
    tree, split = (SparkerSession(LAPTOP2).run(
        "LR-A", aggregation=aggregation, iterations=2)
        for aggregation in ("tree", "split"))
    assert tree.final_loss == pytest.approx(split.final_loss)
    assert tree.end_to_end != split.end_to_end


def test_unknown_workload_rejected():
    with pytest.raises(KeyError, match="unknown workload"):
        SparkerSession(ClusterConfig.laptop()).run("LR-K12")


def test_workload_deterministic():
    a = SparkerSession(LAPTOP2).run("SVM-A", iterations=1)
    b = SparkerSession(LAPTOP2).run("SVM-A", iterations=1)
    assert a.end_to_end == b.end_to_end
    assert a.final_loss == b.final_loss
