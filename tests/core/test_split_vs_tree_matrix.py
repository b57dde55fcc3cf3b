"""Cross-backend equivalence matrix: every aggregation path, same answer.

The single most important invariant of the reproduction: for any data and
any cluster shape, ``tree``, ``tree_imm`` and ``split`` aggregation are
*semantically identical* — they differ only in simulated time. This module
drives that invariant through a hypothesis-generated matrix of shapes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.core import AggregationSpec
from repro.ml.aggregators import FlatAggregator, concat_op, reduce_op, split_op
from repro.rdd import SparkerContext
from repro.serde import SizedPayload


@settings(max_examples=12, deadline=None)
@given(
    n_items=st.integers(1, 25),
    elems=st.integers(1, 48),
    slices=st.integers(1, 10),
    nodes=st.integers(1, 3),
    parallelism=st.integers(1, 3),
    seed=st.integers(0, 500),
)
def test_all_backends_identical_property(n_items, elems, slices, nodes,
                                         parallelism, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.integers(-9, 9, elems).astype(float)
              for _ in range(n_items)]
    expected = np.sum(arrays, axis=0)
    results = {}
    for backend in ("tree", "tree_imm", "split"):
        sc = SparkerContext(ClusterConfig.laptop(num_nodes=nodes))
        data = [SizedPayload(a.copy()) for a in arrays]
        rdd = sc.parallelize(data, slices)
        zero = lambda: SizedPayload(np.zeros(elems))  # noqa: E731
        if backend == "split":
            out = rdd.split_aggregate(
                zero, lambda acc, x: acc.merge_inplace(x),
                lambda u, i, n: u.split(i, n),
                lambda a, b: a.merge(b), SizedPayload.concat,
                AggregationSpec(parallelism=parallelism))
        else:
            out = rdd.tree_aggregate(
                zero, lambda acc, x: acc.merge_inplace(x),
                lambda a, b: a.merge(b), imm=(backend == "tree_imm"))
        results[backend] = out.data
        np.testing.assert_allclose(out.data, expected)
    np.testing.assert_array_equal(results["tree"], results["tree_imm"])
    np.testing.assert_array_equal(results["tree"], results["split"])


@settings(max_examples=8, deadline=None)
@given(
    n_points=st.integers(1, 40),
    dim=st.integers(1, 30),
    slices=st.integers(1, 8),
    seed=st.integers(0, 200),
)
def test_flat_aggregator_backends_property(n_points, dim, slices, seed):
    """Same invariant through the ML-facing FlatAggregator path."""
    from repro.ml.linalg import LabeledPoint, SparseVector

    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n_points):
        nnz = int(rng.integers(1, dim + 1))
        idx = np.sort(rng.choice(dim, nnz, replace=False))
        points.append(LabeledPoint(
            float(rng.integers(0, 2)),
            SparseVector(dim, idx, rng.standard_normal(nnz))))
    expected = np.zeros(dim)
    for p in points:
        p.features.add_to(expected)

    def seq(agg: FlatAggregator, p) -> FlatAggregator:
        p.features.add_to(agg.payload)
        agg.add_stats(p.label, 1.0)
        return agg

    outputs = {}
    for backend in ("tree", "split"):
        sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
        rdd = sc.parallelize(points, slices)
        zero = lambda: FlatAggregator(dim)  # noqa: E731
        if backend == "split":
            agg = rdd.split_aggregate(
                zero, seq, split_op, reduce_op, concat_op,
                AggregationSpec(parallelism=2),
                merge_op=lambda a, b: a.merge(b))
        else:
            agg = rdd.tree_aggregate(zero, seq, lambda a, b: a.merge(b))
        outputs[backend] = agg
        np.testing.assert_allclose(agg.payload, expected, atol=1e-9)
        assert agg.weight_sum == n_points
    np.testing.assert_allclose(outputs["tree"].buf, outputs["split"].buf)
