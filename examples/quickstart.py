#!/usr/bin/env python3
"""Quickstart: train logistic regression on a simulated cluster, both ways.

Builds a 2-node simulated BIC cluster, generates a sparse classification
dataset, and trains MLlib-style logistic regression twice — once with
vanilla Spark's treeAggregate and once with Sparker's splitAggregate — to
show (a) both produce *identical* models and (b) split aggregation spends
far less simulated time reducing.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import AggregationSpec, ClusterConfig, SparkerSession
from repro.bench import BreakdownRecorder
from repro.data import sparse_classification
from repro.ml import LogisticRegressionWithSGD

NUM_FEATURES = 2_000
NUM_SAMPLES = 2_000
ITERATIONS = 8

#: every reduction knob lives on one immutable spec; the default is the
#: paper's parallel directed ring with 4 channels. Try
#: ``AggregationSpec(collective="pipelined_ring")`` to stream the ring
#: under the fold, or ``"hd"`` / ``"hierarchical"`` for the other
#: reduce-scatter algorithms.
SPEC = AggregationSpec(parallelism=4)


def train(aggregation: str):
    """Train once with the given aggregation backend."""
    sc = SparkerSession(ClusterConfig.bic(num_nodes=2)).context()
    points, _true_w = sparse_classification(
        NUM_SAMPLES, NUM_FEATURES, nnz_per_sample=12, seed=42)
    rdd = sc.parallelize(points).cache()
    rdd.count()  # materialize the cache before the measured window

    recorder = BreakdownRecorder(sc)
    model = LogisticRegressionWithSGD.train(
        rdd, NUM_FEATURES,
        num_iterations=ITERATIONS, step_size=2.0,
        aggregation=aggregation,
        spec=SPEC,
        # Pretend the 2k-dim surrogate stands for a 2M-dim paper-scale
        # model so the aggregator is big enough for reduction to matter.
        size_scale=1_000.0,
    )
    breakdown = recorder.finish()
    return sc, model, breakdown, points


def main() -> None:
    sc_tree, tree_model, tree_times, points = train("tree")
    sc_split, split_model, split_times, _ = train("split")

    print("=== Sparker quickstart: LR on a simulated 2-node cluster ===\n")
    print(f"training accuracy      : {tree_model.accuracy(points):.3f}")
    print(f"loss trajectory        : {tree_model.losses[0]:.4f} -> "
          f"{tree_model.losses[-1]:.4f}")
    identical = np.allclose(tree_model.weights, split_model.weights)
    print(f"tree == split weights  : {identical}\n")

    print(f"{'':24s}{'Spark (tree)':>14s}{'Sparker (split)':>16s}")
    for label, a, b in [
        ("aggregation compute", tree_times.agg_compute,
         split_times.agg_compute),
        ("aggregation reduce", tree_times.agg_reduce,
         split_times.agg_reduce),
        ("driver", tree_times.driver, split_times.driver),
        ("end-to-end", tree_times.total, split_times.total),
    ]:
        print(f"{label:24s}{a:13.2f}s{b:15.2f}s")
    speedup = tree_times.total / split_times.total
    print(f"\nSparker end-to-end speedup over Spark: {speedup:.2f}x")
    assert identical, "backends must agree numerically"


if __name__ == "__main__":
    main()
