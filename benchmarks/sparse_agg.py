"""Density-adaptive aggregation benchmark: writes ``BENCH_sparse_agg.json``.

Compares classic dense aggregation against the density-adaptive sparse
path (seqOp accumulates (index, value) pairs, every ring send re-evaluates
the SparCML-style wire-format switch) on three regimes:

* ``lr_ultra_sparse`` — LR over a 50k-dim space whose features live on a
  0.8%-density support: the summed gradient stays sparse end-to-end, so
  adaptive mode must cut both bytes-on-wire and simulated aggregation
  time;
* ``lr_mid_density`` — a support wide enough that merges cross the
  densify threshold mid-reduction (the switch points are counted);
* ``lr_dense_control`` — features covering the whole (small) space: the
  payload densifies immediately and adaptive mode must stay within noise
  of dense mode.

Also times the columnar partition fold (``repro.ml.columnar``, the only
gradient fold the trainers use) against the per-sample reference it must
equal bit for bit; the win is host wall-clock only.

Usage::

    PYTHONPATH=src python benchmarks/sparse_agg.py          # full run
    PYTHONPATH=src python benchmarks/sparse_agg.py --smoke  # CI gate

``--smoke`` runs only the smallest sparse configuration and exits
non-zero if adaptive mode regresses simulated aggregation time or fails
to save bytes-on-wire — the CI bench-smoke gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.experiments import sparse_agg_comparison
from repro.cluster import ClusterConfig
from repro.core.aggregation import fold_partition
from repro.data import concentrated_classification, sparse_classification
from repro.ml import FlatAggregator, LogisticGradient, gradient_seq_op
from repro.rdd import CachedPartition, Costed, SparkerContext, TaskContext

#: simulated-agg-time slack for the dense-regime control and the smoke
#: gate (the adaptive path must never be meaningfully slower)
NOISE = 0.01

CONFIGS = {
    # name: (generator kwargs, num_features, expected_regime)
    "lr_ultra_sparse": dict(
        n_samples=600, n_features=50_000, nnz_per_sample=10,
        support_size=400, seed=7),
    "lr_mid_density": dict(
        n_samples=1_200, n_features=4_000, nnz_per_sample=20,
        support_size=2_400, seed=11),
}
DENSE_CONTROL = dict(n_samples=800, n_features=500, nnz_per_sample=40,
                     seed=105)

NODES = 4
ITERATIONS = 2


def points_for(name: str):
    if name == "lr_dense_control":
        pts, _ = sparse_classification(**DENSE_CONTROL)
        return pts, DENSE_CONTROL["n_features"]
    kwargs = CONFIGS[name]
    pts, _ = concentrated_classification(**kwargs)
    return pts, kwargs["n_features"]


def run_config(name: str) -> dict:
    pts, dim = points_for(name)
    res = sparse_agg_comparison(
        pts, dim, config=ClusterConfig.bic(num_nodes=NODES),
        iterations=ITERATIONS)
    dense, adaptive = res["dense"], res["adaptive"]
    bit_identical = bool(
        np.array_equal(dense.pop("weights"), adaptive.pop("weights")))
    return {
        "num_features": dim,
        "num_samples": len(pts),
        "dense": dense,
        "adaptive": adaptive,
        "bit_identical_weights": bit_identical,
        "bytes_saved": adaptive["bytes_saved"],
        "wire_reduction": (
            dense["ring_wire_bytes"] / adaptive["ring_wire_bytes"]
            if adaptive["ring_wire_bytes"] > 0 else 1.0),
        "agg_time_delta": adaptive["agg_time"] - dense["agg_time"],
    }


def run_columnar_fold(repeats: int = 5) -> dict:
    """Host seconds to fold one cached dataset's partitions: the columnar
    fold against the per-sample ``Gradient.add_to`` loop, same bits."""
    dim = 20_000
    pts, _ = concentrated_classification(
        n_samples=4_000, n_features=dim, nnz_per_sample=30,
        support_size=4_000, seed=13)
    parts = [CachedPartition(pts[lo:lo + 250])
             for lo in range(0, len(pts), 250)]
    weights = np.random.default_rng(13).standard_normal(dim) * 0.1
    columnar = gradient_seq_op(LogisticGradient(), lambda: weights)
    reference = Costed(columnar.fn, columnar.cost_fn)
    executor = SparkerContext(ClusterConfig.laptop(1)).executors[0]

    def fold(seq_op):
        ctx = TaskContext(0, 0, 0, executor)
        began = time.perf_counter()
        aggs = [fold_partition(FlatAggregator(dim), part, seq_op, ctx)
                for part in parts]
        wall = time.perf_counter() - began
        return wall, (ctx.charged, [agg.buf.tobytes() for agg in aggs])

    fold(columnar)  # lay the columns out: the timed folds find them
    walls = {"reference": [], "columnar": []}
    outcomes = {}
    for _ in range(repeats):
        for mode, seq_op in (("reference", reference),
                             ("columnar", columnar)):
            wall, outcomes[mode] = fold(seq_op)
            walls[mode].append(wall)
    best = {mode: min(times) for mode, times in walls.items()}
    return {
        "samples": len(pts),
        "partitions": len(parts),
        "per_sample_reference_s": best["reference"],
        "columnar_s": best["columnar"],
        "speedup": best["reference"] / best["columnar"],
        "bit_identical": outcomes["reference"] == outcomes["columnar"],
        "host_cpus": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Dense vs density-adaptive aggregation benchmark.")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sparse config only; exit non-zero "
                             "if adaptive mode regresses")
    args = parser.parse_args(argv)

    if args.smoke:
        result = run_config("lr_ultra_sparse")
        print(json.dumps({"lr_ultra_sparse": result}, indent=2))
        ok = (result["bit_identical_weights"]
              and result["bytes_saved"] > 0
              and result["adaptive"]["agg_time"]
              <= result["dense"]["agg_time"] * (1.0 + NOISE))
        print("smoke:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    report = {
        "benchmark": "sparse_agg",
        "configuration": {
            "cluster": "BIC", "nodes": NODES, "iterations": ITERATIONS,
            "aggregation": "split", "parallelism": 4,
        },
        "configs": {},
    }
    for name in (*CONFIGS, "lr_dense_control"):
        report["configs"][name] = run_config(name)
        print(f"ran {name}")
    report["columnar_fold"] = run_columnar_fold()

    sparse_cfg = report["configs"]["lr_ultra_sparse"]
    control = report["configs"]["lr_dense_control"]
    report["acceptance"] = {
        "sparse_saves_bytes": sparse_cfg["bytes_saved"] > 0,
        "sparse_saves_agg_time": sparse_cfg["agg_time_delta"] < 0,
        "dense_control_within_noise": (
            abs(control["agg_time_delta"])
            <= NOISE * max(control["dense"]["agg_time"], 1e-12)),
        "all_bit_identical": all(
            c["bit_identical_weights"]
            for c in report["configs"].values()),
        "columnar_fold_bit_identical":
            report["columnar_fold"]["bit_identical"],
        "columnar_fold_speedup_ge_2":
            report["columnar_fold"]["speedup"] >= 2.0,
    }

    target = Path(__file__).resolve().parent.parent / "BENCH_sparse_agg.json"
    target.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report["acceptance"], indent=2))
    print(f"wrote {target}")
    return 0 if all(report["acceptance"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
