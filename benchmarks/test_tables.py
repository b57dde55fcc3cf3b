"""Tables 1-3: configurations, datasets, models (paper §2.1)."""

from repro.bench import table1_clusters, table2_datasets, table3_models
from repro.cluster import ClusterConfig
from repro.data import DATASETS


def test_table1_clusters(record):
    text = table1_clusters()
    record("table1_clusters", text)
    bic, aws = ClusterConfig.bic(), ClusterConfig.aws()
    assert bic.total_cores == 192
    assert aws.total_cores == 960


def test_table2_datasets(record):
    text = table2_datasets()
    record("table2_datasets", text)
    # The relative shapes the paper's analysis depends on.
    assert DATASETS["kdd12"].paper_features > \
        50 * DATASETS["avazu"].paper_features
    assert DATASETS["nytimes"].paper_features > \
        3 * DATASETS["enron"].paper_features
    for spec in DATASETS.values():
        assert spec.size_scale > 1
        assert spec.compute_scale > 1


def test_table3_models(record):
    text = table3_models()
    record("table3_models", text)
    assert "Logistic Regression" in text
    assert "SVM" in text
    assert "LDA" in text
