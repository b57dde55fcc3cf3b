"""Dataset registry: Table 2's six real-world datasets and their surrogates.

Each :class:`DatasetSpec` records the **paper-scale** shape (sample count,
feature/vocabulary dimension — these drive aggregator sizes and compute
scaling) and a **surrogate** shape that is generated synthetically at
laptop scale. Two scale factors bridge them (DESIGN.md §2):

* ``compute_scale`` — how many paper-scale samples one surrogate sample
  stands for (scales per-sample virtual compute cost),
* ``size_scale`` — paper aggregator bytes / surrogate aggregator bytes
  (scales broadcast/aggregator communication costs).

The kdd-family's huge feature counts and nytimes' large vocabulary are
exactly what makes their aggregators big, which is why LR-K, SVM-K,
SVM-K12 and LDA-N benefit most from split aggregation (paper §5.3.1) —
the registry preserves those ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .synthetic import lda_corpus, sparse_classification

__all__ = ["DatasetSpec", "DATASETS", "dataset", "PAPER_LDA_TOPICS",
           "SURROGATE_LDA_TOPICS"]

#: Table 3: LDA runs with K=100 topics at paper scale.
PAPER_LDA_TOPICS = 100
#: Surrogate topic count (scales the K x V aggregator down with the vocab).
SURROGATE_LDA_TOPICS = 10


@dataclass(frozen=True)
class DatasetSpec:
    """One Table 2 dataset and its laptop-scale surrogate."""

    name: str
    task: str  # "classification" | "topic-model"
    source: str
    # ---- paper scale -------------------------------------------------------
    paper_samples: int
    paper_features: int  # feature dim, or vocabulary size for topic models
    paper_nnz: int  # average non-zeros (unique words) per sample
    # ---- surrogate scale ---------------------------------------------------
    surrogate_samples: int
    surrogate_features: int
    surrogate_nnz: int
    seed: int = 0

    # ------------------------------------------------------------------ scales
    @property
    def compute_scale(self) -> float:
        """Paper-scale per-core compute represented by one surrogate sample."""
        sample_ratio = self.paper_samples / self.surrogate_samples
        nnz_ratio = self.paper_nnz / self.surrogate_nnz
        if self.task == "topic-model":
            topic_ratio = PAPER_LDA_TOPICS / SURROGATE_LDA_TOPICS
            return sample_ratio * nnz_ratio * topic_ratio
        return sample_ratio * nnz_ratio

    @property
    def size_scale(self) -> float:
        """Paper aggregator bytes per surrogate aggregator byte."""
        if self.task == "topic-model":
            return ((PAPER_LDA_TOPICS * self.paper_features)
                    / (SURROGATE_LDA_TOPICS * self.surrogate_features))
        return self.paper_features / self.surrogate_features

    # ---------------------------------------------------------------- generate
    def generate(self) -> Tuple[list, np.ndarray]:
        """Materialize the surrogate: ``(samples, ground_truth)``.

        Classification: ``(List[LabeledPoint], true_weights)``.
        Topic model: ``(List[SparseVector], true_topics)``.

        Generation is fully seeded, so repeated calls for the same spec
        produce byte-identical data; the result is memoized per process
        (specs are frozen/hashable) and benchmark sweeps that train the
        same workload at several cluster sizes pay for generation once.
        Callers get a fresh list (the samples themselves are shared and
        treated as immutable — the ground-truth array is marked read-only
        to catch accidental writes).
        """
        memo = _GENERATE_MEMO.get(self)
        if memo is None:
            if self.task == "classification":
                memo = sparse_classification(
                    self.surrogate_samples, self.surrogate_features,
                    self.surrogate_nnz, seed=self.seed)
            elif self.task == "topic-model":
                # doc_length is chosen so the *unique* word count per doc
                # lands near surrogate_nnz (the value compute_scale
                # normalizes by).
                memo = lda_corpus(
                    self.surrogate_samples, self.surrogate_features,
                    SURROGATE_LDA_TOPICS,
                    doc_length=max(1, int(self.surrogate_nnz * 1.15)),
                    seed=self.seed)
            else:
                raise ValueError(f"unknown task {self.task!r}")
            memo[1].setflags(write=False)
            _GENERATE_MEMO[self] = memo
        samples, truth = memo
        return list(samples), truth
        raise ValueError(f"unknown task {self.task!r}")

    def __str__(self) -> str:
        return (f"{self.name}: {self.paper_samples:,} samples x "
                f"{self.paper_features:,} features ({self.task}, "
                f"{self.source})")


#: Table 2, with surrogate shapes preserving the paper's ratios.
#: per-process memo of generated surrogates, keyed by the (frozen) spec
_GENERATE_MEMO: Dict[DatasetSpec, Tuple[list, np.ndarray]] = {}

DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec for spec in [
        DatasetSpec(
            name="avazu", task="classification", source="libsvm",
            paper_samples=45_006_431, paper_features=1_000_000,
            paper_nnz=15,
            surrogate_samples=3_000, surrogate_features=4_000,
            surrogate_nnz=15, seed=101),
        DatasetSpec(
            name="criteo", task="classification", source="libsvm",
            paper_samples=51_882_752, paper_features=1_000_000,
            paper_nnz=39,
            surrogate_samples=3_000, surrogate_features=4_000,
            surrogate_nnz=20, seed=102),
        DatasetSpec(
            name="kdd10", task="classification", source="libsvm",
            paper_samples=8_918_054, paper_features=20_216_830,
            paper_nnz=30,
            surrogate_samples=2_000, surrogate_features=12_000,
            surrogate_nnz=20, seed=103),
        DatasetSpec(
            name="kdd12", task="classification", source="libsvm",
            paper_samples=149_639_105, paper_features=54_686_452,
            paper_nnz=11,
            surrogate_samples=4_000, surrogate_features=16_000,
            surrogate_nnz=11, seed=104),
        DatasetSpec(
            name="enron", task="topic-model", source="uci",
            paper_samples=39_861, paper_features=28_102,
            paper_nnz=90,
            surrogate_samples=800, surrogate_features=500,
            surrogate_nnz=40, seed=105),
        DatasetSpec(
            name="nytimes", task="topic-model", source="uci",
            paper_samples=300_000, paper_features=102_660,
            paper_nnz=230,
            surrogate_samples=1_500, surrogate_features=1_200,
            surrogate_nnz=60, seed=106),
    ]
}


def dataset(name: str) -> DatasetSpec:
    """Look up a Table 2 dataset by name."""
    try:
        return DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise KeyError(f"unknown dataset {name!r}; known: {known}") from None
