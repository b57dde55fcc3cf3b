"""LDA's partition E-step against its per-document oracle.

``EStepSeqOp.fold_partition`` is the E-step every LDA aggregation runs;
the per-document ``Costed`` fold (``EStepSeqOp.fn``, one document at a
time under the engine's per-element loop) is the reference it must
reproduce *exactly*: counts bytes, loss and weight sums and the virtual
charge, all ``==``.
"""

import gc
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import FlatAggregator, SparseVector
from repro.ml.lda import EStepSeqOp
from repro.rdd import ELEMENT_OVERHEAD, TaskContext

PER_TOKEN = 1e-7


def _ctx(charged=0.0):
    ctx = TaskContext(0, 0, 0, None)
    ctx.charged = charged
    return ctx


def _reference(op, parts, agg, ctx):
    """The per-document loop, written out: what the fold must equal."""
    for part in parts:
        for doc in part:
            ctx.charge(op.cost(agg, doc) + ELEMENT_OVERHEAD)
            op(agg, doc)
    return agg


def _batched(op, parts, agg, ctx):
    for part in parts:
        assert op.fold_partition(agg, part, ctx) is agg
    return agg


@st.composite
def corpora(draw):
    """``(k, alpha, beta, docs)``: K on both sides of numpy's 8- and
    128-element pairwise-sum thresholds; a vocabulary of one word or more,
    some topic weights exactly zero; documents of length 0, 1, all of the
    vocabulary (so words repeat across documents) or anything between."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.sampled_from([2, 7, 8, 9, 127, 128, 129, 130])
             | st.integers(2, 130))
    vocab = draw(st.integers(1, 60))
    beta = rng.random((k, vocab)) * 10.0 ** rng.integers(-3, 1, (k, 1))
    if draw(st.booleans()):
        beta[rng.random(beta.shape) < 0.2] = 0.0
    docs = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["empty", "one", "all", "some", "some"]))
        n = {"empty": 0, "one": 1, "all": vocab}.get(
            kind, int(rng.integers(0, vocab + 1)))
        indices = np.sort(rng.choice(vocab, size=n, replace=False))
        counts = (rng.integers(1, 9, n).astype(np.float64) if draw(
            st.booleans()) else rng.random(n) * 5.0)
        docs.append(SparseVector(vocab, indices, counts))
    alpha = draw(st.sampled_from([0.1, 1e-3, 2.0]))
    return k, alpha, beta, docs


@settings(max_examples=150, deadline=None)
@given(case=corpora(), split=st.integers(0, 40),
       charged=st.floats(0.0, 1.0),
       stats=st.sampled_from([(0.0, 0.0), (-3.25, 0.1), (1e9, 2.0 ** 53)]),
       merged=st.booleans())
def test_fold_equals_per_document_loop_exactly(case, split, charged, stats,
                                               merged):
    k, alpha, beta, docs = case
    op = EStepSeqOp(k, alpha, lambda: beta, PER_TOKEN)
    # two folds into one accumulator, from statistics and a charge that
    # are not zero: the second starts from counts the first left, the
    # first (when it has words) from an empty partial, which keeps K x
    # its words unless they reach two thirds of the vocabulary.
    # ``merged``: each part into a fresh partial, the second merged into
    # the first, as IMM and tree combines do
    parts = [docs[:split], docs[split:]]
    outcomes = []
    for fold in (_reference, _batched):
        ctx = _ctx(charged)
        agg = FlatAggregator(beta.size)
        agg.set_stats(*stats)
        if merged:
            other = FlatAggregator(beta.size)
            fold(op, parts[:1], agg, ctx)
            fold(op, parts[1:], other, ctx)
            agg.merge(other)
        else:
            fold(op, parts, agg, ctx)
        observed = (agg.payload_nnz, agg.__sim_size__(), agg.representation,
                    agg.loss_sum, agg.weight_sum, ctx.charged)
        outcomes.append(observed + (agg.buf.tobytes(),))
    assert outcomes[1] == outcomes[0]


def test_a_fresh_partial_keeps_k_rows_over_the_partition_words():
    beta = np.random.default_rng(3).random((3, 10)) + 0.01
    op = EStepSeqOp(3, 0.1, lambda: beta, PER_TOKEN)
    docs = [SparseVector(10, [1, 4], [2.0, 1.0]),
            SparseVector(10, [4, 7], [1.0, 3.0])]
    agg = FlatAggregator(beta.size)
    op.fold_partition(agg, docs, _ctx())
    positions, totals = agg._acc.indices_values()
    assert positions.dtype == np.int32
    assert positions.tolist() == [1, 4, 7, 11, 14, 17, 21, 24, 27]
    reference = FlatAggregator(beta.size)
    _reference(op, [docs], reference, _ctx())
    assert totals.tobytes() == reference.payload[positions].tobytes()
    assert agg.buf.tobytes() == reference.buf.tobytes()


def test_empty_documents_are_charged_not_folded():
    beta = np.full((3, 4), 0.25)
    op = EStepSeqOp(3, 0.1, lambda: beta, PER_TOKEN)
    agg, ctx = FlatAggregator(beta.size), _ctx(0.5)
    op.fold_partition(agg, [SparseVector(4, [], [])] * 3, ctx)
    charged = 0.5 + ELEMENT_OVERHEAD + ELEMENT_OVERHEAD + ELEMENT_OVERHEAD
    assert ctx.charged == charged
    assert not agg.buf.any()
    op.fold_partition(agg, [], ctx)
    assert ctx.charged == charged


# ----------------------------------------------------------- count guard
def _calls(fold, num_docs):
    """Python-level calls (``call`` + ``c_call``) of one fold of
    ``num_docs`` 50-word documents; the profiler does not see ufuncs."""
    rng = np.random.default_rng(num_docs)
    k, vocab = 10, 200
    beta = rng.random((k, vocab)) + 0.01
    docs = [SparseVector(vocab, np.sort(rng.choice(vocab, 50, replace=False)),
                         rng.integers(1, 5, 50).astype(np.float64))
            for _ in range(num_docs)]
    op = EStepSeqOp(k, 0.1, lambda: beta, PER_TOKEN)
    fold(op, [docs], FlatAggregator(beta.size), _ctx())  # warm-up
    agg, ctx = FlatAggregator(beta.size), _ctx()
    calls = [0]

    def profiler(_frame, event, _arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    # a collection runs whatever hooks the process has registered
    # (hypothesis times them through gc.callbacks), inside the count
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fold(op, [docs], agg, ctx)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls[0]


def test_fold_calls_grow_by_at_most_four_per_document():
    """CI's gate on a relapse to per-document arrays: a document adds its
    ``matmul``s, its scatter and its ``ddot`` — ufuncs and operators, no
    Python-level call (68 calls a fold at any size on CPython 3.11); the
    per-document loop adds 34 a document."""
    small, large = _calls(_batched, 8), _calls(_batched, 40)
    assert _calls(_batched, 8) == small  # the count is exact, or gates nothing
    per_document = (large - small) / 32
    assert per_document <= 4.0, (small, large, per_document)
    looped = (_calls(_reference, 40) - _calls(_reference, 8)) / 32
    assert looped >= 20.0, looped  # what the count would see in a relapse
