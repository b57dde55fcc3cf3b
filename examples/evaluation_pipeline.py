#!/usr/bin/env python3
"""An end-user ML pipeline: train, evaluate, and instrument.

Shows the parts of the library around the headline reduction story:

* a train/test split over the avazu surrogate (Table 2),
* accumulators counting records exactly-once during training,
* AUC / precision / recall via BinaryClassificationMetrics,
* a custom per-feature counter on the trainers' own split path: a
  ``FlatAggregator`` with the splitOp/reduceOp/concatOp of
  ``repro.ml.aggregators``.

Run:  python examples/evaluation_pipeline.py
"""

import numpy as np

from repro import AggregationSpec, ClusterConfig, SparkerSession
from repro.data import dataset
from repro.ml import BinaryClassificationMetrics, LogisticRegressionWithSGD
from repro.ml.aggregators import (
    FlatAggregator,
    concat_op,
    reduce_op,
    split_op,
)


def count_features(agg: FlatAggregator, point) -> FlatAggregator:
    """seqOp: one hit per active feature, one unit of weight per sample."""
    agg.payload[point.features.indices] += 1.0
    agg.add_stats(0.0, 1.0)
    return agg


def main() -> None:
    spec = dataset("avazu")
    points, _ = spec.generate()
    split_at = int(0.8 * len(points))
    train, test = points[:split_at], points[split_at:]

    sc = SparkerSession(ClusterConfig.bic(num_nodes=4)).context()
    train_rdd = sc.parallelize(train).cache()
    train_rdd.count()

    # --- instrument the data with an exactly-once accumulator -----------
    nnz_total = sc.accumulator(0, name="nnz")
    train_rdd.foreach(lambda p: nnz_total.add(p.features.nnz))
    print(f"training set: {len(train)} samples, "
          f"{nnz_total.value} non-zeros "
          f"(avg {nnz_total.value / len(train):.1f}/sample)")

    # --- dataset profiling through split aggregation --------------------
    stats = train_rdd.split_aggregate(
        lambda: FlatAggregator(spec.surrogate_features), count_features,
        split_op, reduce_op, concat_op, AggregationSpec(parallelism=4),
        merge_op=lambda a, b: a.merge(b))
    hits = stats.payload
    busiest = int(np.argmax(hits))
    print(f"feature activity (split aggregation): busiest feature "
          f"#{busiest} appears in {int(hits[busiest])} samples; "
          f"{int((hits > 0).sum())} features active")
    assert stats.weight_sum == len(train)

    # --- train with split aggregation, evaluate on held-out data --------
    model = LogisticRegressionWithSGD.train(
        train_rdd, spec.surrogate_features,
        num_iterations=15, step_size=2.0, aggregation="split",
        size_scale=spec.size_scale, sample_scale=spec.compute_scale)
    train_metrics = BinaryClassificationMetrics.from_model(model, train)
    test_metrics = BinaryClassificationMetrics.from_model(model, test)
    print(f"\nevaluation (train {len(train)} / held-out {len(test)}):")
    print(f"  train AUC : {train_metrics.area_under_roc():.3f}")
    print(f"  test AUC  : {test_metrics.area_under_roc():.3f}  "
          f"(4000 features from 2400 samples: generalization is hard)")
    print(f"  accuracy  : {test_metrics.accuracy_at(0.0):.3f}")
    print(f"  precision : {test_metrics.precision_at(0.0):.3f}")
    print(f"  recall    : {test_metrics.recall_at(0.0):.3f}")
    agg_time = (sc.stopwatch.total("agg.compute")
                + sc.stopwatch.total("agg.reduce"))
    print(f"\nsimulated cluster time: {sc.now:.1f}s "
          f"(aggregation: {agg_time:.1f}s)")
    assert train_metrics.area_under_roc() > 0.9
    assert test_metrics.area_under_roc() > 0.6


if __name__ == "__main__":
    main()
