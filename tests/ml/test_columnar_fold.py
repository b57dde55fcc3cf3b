"""The columnar partition fold against its per-sample oracle.

``ColumnarSeqOp.fold_partition`` is the only gradient fold the trainers
use; ``Gradient.add_to`` one sample at a time is the reference it must
reproduce *exactly* — every comparison here is ``==`` on floats or bytes,
never ``allclose``: aggregator buffer, loss and weight sums, the sparse
accumulator's pending count and wire size, and the virtual charge.
"""

import gc
import hashlib
import pickle
import sys
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregationSpec, ClusterConfig, SparkerContext
from repro.bench.workloads import WORKLOADS
from repro.data.registry import SURROGATE_LDA_TOPICS
from repro.ml import (
    LDA,
    FlatAggregator,
    HingeGradient,
    LabeledPoint,
    LeastSquaresGradient,
    LogisticGradient,
    LogisticRegressionWithSGD,
    PartitionColumns,
    SparseVector,
    SVMWithSGD,
    aggregators,
    lda,
    optimization,
)
from repro.ml.columnar import ColumnarSeqOp, _block_dots
from repro.obs import EventBus, MetricsListener
from repro.rdd import ELEMENT_OVERHEAD, CachedPartition, Costed, TaskContext
from repro.serde import SparsePolicy, sim_sizeof

GRADIENTS = (LogisticGradient, HingeGradient, LeastSquaresGradient)
PER_NNZ = 1e-7


def _ctx(charged=0.0, bus=None):
    """A real TaskContext on just enough of an executor for the fold."""
    executor = SimpleNamespace(
        sc=SimpleNamespace(event_bus=bus if bus is not None else EventBus()),
        env=SimpleNamespace(now=0.0), executor_id=0, _current_task_span=-1)
    ctx = TaskContext(0, 0, 0, executor)
    ctx.charged = charged
    return ctx


def _reference(gradient, parts, weights, agg, ctx):
    """The per-sample loop, written out: what the fold must equal."""
    for part in parts:
        for point in part:
            ctx.charge(point.features.nnz * PER_NNZ + ELEMENT_OVERHEAD)
            agg.add_stats(gradient.add_to(point, weights, agg.payload), 1.0)
    return agg


def _columnar(gradient, parts, weights, agg, ctx):
    op = ColumnarSeqOp(gradient, lambda: weights, PER_NNZ)
    for part in parts:
        assert op.fold_partition(agg, part, ctx) is agg
    return agg


def _observed(agg, ctx):
    """Everything a fold leaves behind, the un-compacted state first."""
    pending = agg.payload_nnz
    wire = agg.__sim_size__()  # compacts, may densify
    return (pending, wire, agg.payload_nnz, agg.representation,
            agg.loss_sum, agg.weight_sum, ctx.charged,
            agg.copy().to_dense().buf.tobytes())


def _point(dim, label, indices, values):
    return LabeledPoint(label, SparseVector(dim, indices, values))


@st.composite
def partitions(draw):
    """``(dim, weights, rows)``: random rows plus the awkward ones.

    Half the draws take 20 rows or more from at most five lengths, so the
    larger part of any split has two rows per distinct length and is
    folded block-wise; the others give nearly every row a length of its
    own, which is the row walk.
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    dim = draw(st.integers(1, 600))
    weights = rng.standard_normal(dim) * draw(
        st.sampled_from([0.0, 1e-3, 1.0, 40.0, 600.0]))
    # coordinate 0 is exactly 1: unit rows on it get w.x == value exactly
    weights[0] = 1.0
    grouped = draw(st.booleans())
    lengths = rng.integers(1, min(dim, 400) + 1, size=3 if grouped else 400)
    rows = []
    for _ in range(draw(st.integers(20, 48) if grouped
                        else st.integers(0, 24))):
        kind = draw(st.sampled_from(
            ["random", "random", "empty", "unit", "unit", "clamp"]))
        label = float(rng.integers(0, 2))
        if kind == "empty":  # nnz == 0
            rows.append(_point(dim, label, [], []))
        elif kind == "unit":
            # hinge slack exactly 0.0 (label 1), least-squares diff 0.0,
            # and for value 40 a logistic multiplier of exactly 0.0
            value = draw(st.sampled_from([1.0, -1.0, 0.0, 40.0]))
            rows.append(_point(dim, label, [0], [value]))
        elif kind == "clamp":  # margins beyond min(margin, 500)
            value = draw(st.sampled_from([-900.0, -501.0, 501.0, 900.0]))
            rows.append(_point(dim, label, [0], [value]))
        else:
            nnz = int(rng.choice(lengths))
            indices = np.sort(rng.choice(dim, size=nnz, replace=False))
            rows.append(_point(dim, label, indices,
                               rng.standard_normal(nnz)))
    return dim, weights, rows


@pytest.mark.parametrize("gradient_cls", GRADIENTS)
@settings(max_examples=150, deadline=None)
@given(case=partitions(), split=st.integers(0, 24),
       charged=st.floats(0.0, 1.0),
       stats=st.sampled_from([(0.0, 0.0), (3.25, 0.1), (-1e-3, 2.5),
                              (1e9, 2.0 ** 53)]),
       threshold=st.sampled_from([None, 0.001, 0.02, 0.3, 1.0]),
       coalesce_min=st.sampled_from([1, 2, 3, 16, 4096]),
       merged=st.booleans())
def test_fold_equals_per_sample_loop_exactly(gradient_cls, case, split,
                                             charged, stats, threshold,
                                             coalesce_min, merged):
    dim, weights, rows = case
    # two folds into one accumulator: the second starts from a non-empty
    # accumulator; both from a loss sum, a fractional weight sum and a
    # charge that are not zero. Without a threshold the first non-empty
    # part starts from an empty partial: the support path, unless it is
    # dense-ish. ``merged``: each part into a fresh partial of its own,
    # then the second merged into the first, as IMM and tree combines do.
    parts = [rows[:split], rows[split:]]
    policy = None if threshold is None else SparsePolicy(threshold)
    saved = aggregators._COALESCE_MIN
    aggregators._COALESCE_MIN = coalesce_min  # densify mid-partition
    try:
        outcomes = []
        for fold in (_reference, _columnar):
            ctx = _ctx(charged)
            agg = FlatAggregator(dim, policy=policy)
            agg.set_stats(*stats)
            if merged:
                other = FlatAggregator(dim, policy=policy)
                fold(gradient_cls(), parts[:1], weights, agg, ctx)
                fold(gradient_cls(), parts[1:], weights, other, ctx)
                agg.merge(other)
            else:
                fold(gradient_cls(), parts, weights, agg, ctx)
            outcomes.append(_observed(agg, ctx))
    finally:
        aggregators._COALESCE_MIN = saved
    assert outcomes[1] == outcomes[0]


def test_the_layout_follows_the_rows_per_distinct_length():
    """Two rows per distinct length or more: blocks; fewer: the row walk.
    The rule reads the partition's own row lengths and nothing else."""
    def columns(lengths):
        return PartitionColumns(
            [_point(9, 1.0, range(k), np.ones(k)) for k in lengths], 9)

    assert columns([3, 5, 3, 5]).by_length is not None
    assert columns([3, 5, 3, 5, 7]).by_length is None
    assert columns([0, 0]).by_length is not None  # a k == 0 block
    assert columns([4]).by_length is None
    indices, order, gathered, grouped, blocks = columns(
        [5, 3, 5, 0, 3, 3]).by_length
    assert order.tolist() == [3, 1, 4, 5, 0, 2]  # stable within a length
    assert [(rows.shape, values.shape, out.shape)
            for rows, values, out in blocks] == [
        ((1, 1, 0), (1, 0, 1), (1, 1, 1)), ((3, 1, 3), (3, 3, 1), (3, 1, 1)),
        ((2, 1, 5), (2, 5, 1), (2, 1, 1))]
    assert indices.tolist() == [0, 1, 2] * 3 + [0, 1, 2, 3, 4] * 2
    # the views are built once, on the buffers a fold fills
    assert gathered.shape == (19,) and grouped.shape == (6,)
    assert all(np.shares_memory(rows, gathered) for rows, _, _ in blocks[1:])
    assert all(np.shares_memory(out, grouped) for _, _, out in blocks)


# ------------------------------------------- what the bits now rest on
@st.composite
def length_grouped_rows(draw):
    """Rows of lengths 0..300 — k == 0, k < 32 and the SIMD part of the
    ``ddot`` kernel (k >= 32) — some lengths once, some several times,
    values and weights over twelve decades; always two rows per length."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 320
    lengths = []
    for k in draw(st.lists(st.integers(0, 300), min_size=1, max_size=12,
                           unique=True)):
        lengths += [k] * draw(st.sampled_from([1, 1, 2, 3, 7]))
    lengths += lengths[:1] * max(0, 2 * len(set(lengths)) - len(lengths))
    rng.shuffle(lengths)

    def wide(size):
        return rng.standard_normal(size) * 10.0 ** rng.integers(-6, 7, size)

    rows = [_point(dim, 0.0, np.sort(rng.choice(dim, size=k, replace=False)),
                   wide(k)) for k in lengths]
    return wide(dim), rows


@settings(max_examples=200, deadline=None)
@given(case=length_grouped_rows())
def test_block_dots_are_sparse_vector_dots_bit_for_bit(case):
    weights, rows = case
    columns = PartitionColumns(rows, weights.shape[0])
    assert columns.by_length is not None
    assert (_block_dots(columns, weights).tobytes()
            == np.array([row.features.dot(weights) for row in rows]).tobytes())


def test_empty_partition_is_untouched():
    agg, ctx = FlatAggregator(5), _ctx(0.25)
    _columnar(LogisticGradient(), [[]], np.ones(5), agg, ctx)
    assert ctx.charged == 0.25 and agg.weight_sum == 0.0
    # still the fresh partial: no dense buffer, the dense model reported
    assert agg._buf is None and agg.takes_support(1)
    assert (agg.representation, agg.payload_nnz, agg.density) == (
        "dense", 5, 1.0)
    assert sim_sizeof(agg) == 7 * 8.0
    assert not agg.buf.any()


@pytest.mark.parametrize("lengths, support", [
    ([0, 0, 0], True),           # rows without entries: an empty support
    ([2, 1, 3, 1], True),        # 7 entries of 12 slots: the support
    ([4, 4], False),             # 8 of 12: dense from the count alone
])
def test_a_fresh_partial_holds_the_support_of_a_sparse_partition(
        lengths, support):
    """The entry count, not the support, decides: a partition whose count
    reaches two thirds of the payload is scattered into a dense buffer
    without building a support. Either way the observed tuple is the
    per-sample loop's."""
    dim, rng = 12, np.random.default_rng(len(lengths))
    rows = [_point(dim, 1.0, np.sort(rng.choice(dim, k, replace=False)),
                   rng.standard_normal(k)) for k in lengths]
    data = CachedPartition(rows)
    weights = rng.standard_normal(dim)
    outcomes = []
    for fold in (_reference, _columnar):
        agg, ctx = FlatAggregator(dim), _ctx()
        fold(LogisticGradient(), [data], weights, agg, ctx)
        if fold is _columnar:
            assert (agg._buf is None) == support
            assert (data.derived._support is not None) == support
        outcomes.append(_observed(agg, ctx))
    assert outcomes[1] == outcomes[0]


def test_rows_of_another_dimension_are_rejected():
    rows = [_point(4, 1.0, [1], [2.0]), _point(5, 0.0, [1], [2.0])]
    with pytest.raises(ValueError, match="sample 1 has 5 features"):
        _columnar(LogisticGradient(), [rows], np.ones(4),
                  FlatAggregator(4), _ctx())


# ------------------------------------------------- bug: zero multipliers
@pytest.mark.parametrize("policy", [None, SparsePolicy(0.9), "support"])
@pytest.mark.parametrize("gradient_cls, label, value", [
    (LogisticGradient, 1.0, 40.0),      # 1/(1 + exp(-40)) - 1 == 0.0
    (LeastSquaresGradient, 1.0, 1.0),   # w.x - y == 0.0
])
def test_zero_multiplier_rows_are_scattered(gradient_cls, label, value,
                                            policy):
    """A multiplier of exactly 0.0 still calls ``features.add_to``: it
    appends entries to a sparse accumulator and turns ``-0.0`` into
    ``0.0`` in a dense one. Only hinge's inactive rows add nothing.
    ``"support"``: a fresh modelled-dense partial, which holds the
    partition's support and its ``0.0`` totals."""
    dim = 8
    weights = np.zeros(dim)
    weights[0] = 1.0
    rows = [_point(dim, label, [0], [value]),
            _point(dim, label, [0, 3, 5], [value, 1.0, 2.0])]
    multiplier, _ = gradient_cls().multiplier_and_loss(value, label)
    assert multiplier == 0.0

    outcomes = []
    for fold in (_reference, _columnar):
        agg = FlatAggregator(
            dim, policy=policy if isinstance(policy, SparsePolicy) else None)
        if policy is None:
            agg.buf[3] = -0.0  # -0.0 + 0.0 flips the sign bit
        ctx = _ctx()
        fold(gradient_cls(), [rows], weights, agg, ctx)
        if fold is _columnar and policy == "support":
            assert agg._acc.indices_values()[0].tolist() == [0, 3, 5]
        outcomes.append(_observed(agg, ctx))
    assert outcomes[1] == outcomes[0]
    if isinstance(policy, SparsePolicy):
        assert outcomes[1][0] == 4  # entries were appended, not dropped
    else:
        assert not np.signbit(
            np.frombuffer(outcomes[1][-1], dtype=np.float64)[3])


def test_hinge_inactive_rows_add_nothing():
    dim = 6
    rows = [_point(dim, 1.0, [0], [1.0]),   # slack exactly 0.0: inactive
            _point(dim, 1.0, [0, 2], [5.0, 1.0]),
            _point(dim, 0.0, [1], [1.0])]   # active
    for copies in (1, 4):  # the row walk, then blocks
        part = rows * copies
        assert (PartitionColumns(part, dim).by_length is None) == (copies == 1)
        agg = _columnar(HingeGradient(), [part], np.ones(dim),
                        FlatAggregator(dim, policy=SparsePolicy(0.9)), _ctx())
        assert agg.payload_nnz == copies and agg.weight_sum == 3.0 * copies
        # no live row at all: nothing is scattered, the rows still count
        agg = _columnar(HingeGradient(), [rows[:2] * copies], np.ones(dim),
                        FlatAggregator(dim, policy=SparsePolicy(0.9)), _ctx())
        assert (agg.payload_nnz, agg.weight_sum, agg.loss_sum) == (
            0, 2.0 * copies, 0.0)


# ----------------------------------------------------------- count guard
class _CountedWeights(np.ndarray):
    """Counts gathers (a fancy index or a ``take``); hands back plain
    arrays."""

    gathers = 0

    def __getitem__(self, key):
        type(self).gathers += 1
        return np.asarray(super().__getitem__(key))

    def take(self, *args, **kwargs):
        type(self).gathers += 1
        return np.asarray(self).take(*args, **kwargs)


def _fold_calls(lengths):
    """Profile one fold of rows of these lengths: (Python-level calls
    outside the scalar gradient function, entries into it, gathers,
    ``np.add.at`` calls, ``np.add.accumulate`` calls)."""
    dim = 500
    rng = np.random.default_rng(len(lengths))
    rows = [_point(dim, float(rng.integers(0, 2)),
                   np.sort(rng.choice(dim, size=k, replace=False)),
                   rng.standard_normal(k)) for k in lengths]
    weights = (rng.standard_normal(dim) * 0.1).view(_CountedWeights)
    gradient = LogisticGradient()
    scalar = LogisticGradient.multiplier_and_loss.__code__
    op = ColumnarSeqOp(gradient, lambda: weights, PER_NNZ)
    data = CachedPartition(rows)
    agg, ctx = FlatAggregator(dim), _ctx()
    op.fold_partition(agg, data, ctx)  # columns are built here, once
    counts = {"calls": 0, "scalar": 0, "at": 0, "accumulate": 0}
    state = {"inside": 0}

    def profiler(frame, event, arg):
        if event == "call":
            if state["inside"]:
                state["inside"] += 1
            else:
                counts["calls"] += 1
                if frame.f_code is scalar:
                    counts["scalar"] += 1
                    state["inside"] = 1
        elif event == "return":
            if state["inside"]:
                state["inside"] -= 1
        elif event == "c_call" and not state["inside"]:
            counts["calls"] += 1
            if getattr(arg, "__self__", None) is np.add:
                counts[arg.__name__] += 1

    _CountedWeights.gathers = 0
    sys.setprofile(profiler)
    try:
        op.fold_partition(agg, data, ctx)
    finally:
        sys.setprofile(None)
    return (counts["calls"], counts["scalar"], _CountedWeights.gathers,
            counts["at"], counts["accumulate"])


def test_fold_work_follows_the_distinct_lengths_not_the_rows():
    """Two rows per length or more: the calls of one fold are ``a + b*L``
    for L distinct lengths, whatever the row count, and the scalar gradient
    function is never entered."""
    def grouped(n, num_lengths):
        return _fold_calls([10 + i % num_lengths for i in range(n)])

    small, large = grouped(300, 6), grouped(3000, 6)
    # one gather, one scatter, three running sums (charge, loss, weight)
    assert small == large and small[1:] == (0, 1, 1, 3)
    # b: 0 — a length's views live on the columns and its matmul is a
    # ufunc, which the profiler does not see (it was a reshape per length);
    # a: 55 on CPython 3.11
    assert grouped(300, 12)[0] == grouped(300, 18)[0] == small[0]
    assert small[0] <= 60


def test_fold_work_per_sample_is_constant_and_small():
    """Fewer than two rows per length: one dot and one scalar gradient
    call per row from Python, as the fold has always done it."""
    def walked(n):
        return _fold_calls([1 + i % (2 * n // 3) for i in range(n)])

    small, large = walked(150), walked(300)
    assert small[1:] == (150, 1, 1, 1) and large[1:] == (300, 1, 1, 1)
    per_small, per_large = small[0] / 150, large[0] / 300
    assert per_large <= 3.0
    assert abs(per_small - per_large) <= 0.1 * per_large


# ------------------------------------------------------------- lifetime
def _dataset(n=240, dim=80, nnz=6, seed=5):
    rng = np.random.default_rng(seed)
    return dim, [
        _point(dim, float(rng.integers(0, 2)),
               np.sort(rng.choice(dim, size=nnz, replace=False)),
               rng.standard_normal(nnz)) for _ in range(n)]


def _live_columns():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, PartitionColumns)]


def test_columns_die_with_the_cached_dataset():
    dim, points = _dataset()
    sc = SparkerContext(ClusterConfig.laptop(2))
    rdd = sc.parallelize(points, 4).cache()
    rdd.count()
    LogisticRegressionWithSGD.train(rdd, dim, num_iterations=2)
    refs = [weakref.ref(block.data.derived) for executor in sc.executors
            for block in executor.memory_store._blocks.values()]
    # one per cached partition, built in iteration 1 and found in 2
    assert len(refs) == 4
    assert all(isinstance(ref(), PartitionColumns) for ref in refs)
    gc.disable()  # stop() itself frees them, context and RDD still held
    try:
        sc.stop()
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
    assert len(points) == 240  # the rows are the caller's, untouched


def test_a_cached_partition_travels_as_its_plain_rows():
    part = CachedPartition([1, 2, 3])
    part.derived = object()  # would not even pickle
    shipped = pickle.loads(pickle.dumps(part, protocol=5))
    assert type(shipped) is list and shipped == [1, 2, 3]


def test_mini_batch_columns_are_released_every_iteration():
    dim, points = _dataset()
    before = len(_live_columns())
    sc = SparkerContext(ClusterConfig.laptop(2))
    rdd = sc.parallelize(points, 4).cache()
    rdd.count()
    listener = MetricsListener()
    sc.event_bus.subscribe(listener)
    LogisticRegressionWithSGD.train(rdd, dim, num_iterations=20,
                                    mini_batch_fraction=0.5)
    store = listener.store
    # RDD.sample builds a new list per iteration: every fold builds ...
    assert store.total("ml.columnar.folds") == 20 * 4
    assert store.total("ml.columnar.builds") == 20 * 4
    # ... and nothing is kept: not on the sampled lists, not anywhere
    assert len(_live_columns()) == before


# --------------------------------------------------------- observability
def test_builds_and_folds_are_counted_only_while_tracing():
    dim, points = _dataset()
    times = {}
    for traced in (False, True):
        sc = SparkerContext(ClusterConfig.laptop(2))
        rdd = sc.parallelize(points, 4).cache()
        rdd.count()
        listener = MetricsListener()
        if traced:
            sc.event_bus.subscribe(listener)
        LogisticRegressionWithSGD.train(rdd, dim, num_iterations=3,
                                        aggregation="split")
        times[traced] = sc.now
        store = listener.store
        if traced:
            assert store.total("ml.columnar.folds") == 3 * 4
            assert store.total("ml.columnar.builds") == 4
        else:
            assert sc.event_bus.emitted == 0 and not store.names()
    assert times[True] == times[False]


def test_uncached_rdd_shows_as_builds_equal_folds():
    dim, points = _dataset()
    sc = SparkerContext(ClusterConfig.laptop(2))
    listener = MetricsListener()
    sc.event_bus.subscribe(listener)
    LogisticRegressionWithSGD.train(sc.parallelize(points, 4), dim,
                                    num_iterations=3)
    store = listener.store
    assert (store.total("ml.columnar.builds")
            == store.total("ml.columnar.folds") == 3 * 4)
    assert "ml.columnar.builds: total=12 " in listener.summary()


# ------------------------------------------------------------ end to end
def _train_workload(name, aggregation, *, host_pool=None,
                    mini_batch_fraction=None):
    """``session.run``'s training call, returning what must not move."""
    workload = WORKLOADS[name]
    ds = workload.spec
    sc = SparkerContext(ClusterConfig.bic(4), host_pool=host_pool)
    samples, _truth = ds.generate()
    rdd = sc.parallelize(samples, sc.default_parallelism).cache()
    rdd.count()
    if workload.model == "lda":
        model = LDA(k=SURROGATE_LDA_TOPICS, num_iterations=3,
                    aggregation=aggregation, spec=AggregationSpec(),
                    size_scale=ds.size_scale, sample_scale=ds.compute_scale,
                    ).fit(rdd, ds.surrogate_features)
        weights, losses = model.topics, model.log_likelihoods
    else:
        trainer = LogisticRegressionWithSGD if workload.model == "lr" \
            else SVMWithSGD
        model = trainer.train(
            rdd, ds.surrogate_features, num_iterations=3,
            step_size=workload.step_size, reg_param=workload.reg_param,
            mini_batch_fraction=(mini_batch_fraction
                                 or workload.mini_batch_fraction),
            aggregation=aggregation, spec=AggregationSpec(),
            size_scale=ds.size_scale, sample_scale=ds.compute_scale)
        weights, losses = model.weights, model.losses
    now = sc.now
    sc.stop()
    return hashlib.sha256(weights.tobytes()).hexdigest(), losses, now


_PER_ELEMENT_RUNS = {}


def _plain(make):
    """``make``'s seqOp as a plain ``Costed``: the per-element loop."""
    def plain(*args, **kw):
        op = make(*args, **kw)
        return Costed(op.fn, op.cost_fn)
    return plain


def _per_element_run(name, aggregation, **kwargs):
    """The same training with the plain per-element ``Costed`` seqOp."""
    key = (name, aggregation, tuple(sorted(kwargs.items())))
    if key not in _PER_ELEMENT_RUNS:
        with mock.patch.object(optimization, "gradient_seq_op",
                               _plain(optimization.gradient_seq_op)), \
                mock.patch.object(lda, "EStepSeqOp", _plain(lda.EStepSeqOp)):
            _PER_ELEMENT_RUNS[key] = _train_workload(name, aggregation,
                                                     **kwargs)
    return _PER_ELEMENT_RUNS[key]


@pytest.mark.parametrize("aggregation", ["tree", "tree_imm", "split"])
@pytest.mark.parametrize("name", ["LR-A", "SVM-K12", "LDA-N"])
def test_training_equals_the_per_element_run(name, aggregation):
    assert (_train_workload(name, aggregation)
            == _per_element_run(name, aggregation))


def test_mini_batch_training_equals_the_per_element_run():
    assert (_train_workload("LR-A", "split", mini_batch_fraction=0.5)
            == _per_element_run("LR-A", "split", mini_batch_fraction=0.5))


@pytest.mark.parametrize("host_pool", [1, 2])
def test_pooled_training_equals_the_serial_per_element_run(host_pool):
    assert (_train_workload("LR-A", "split", host_pool=host_pool)
            == _per_element_run("LR-A", "split"))
