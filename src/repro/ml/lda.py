"""Latent Dirichlet Allocation by distributed EM (MLlib-style, K=100 in
Table 3).

Each EM iteration broadcasts the topic-word matrix, runs a per-document
E-step (fixed-point updates of the document-topic mixture), and globally
aggregates the expected topic-word counts — a dense ``K x V`` matrix, which
is why the LDA workloads have the paper's largest aggregators (nytimes:
100 x 102,660 doubles ≈ 82 MB) and benefit most from split aggregation.
The driver's M-step renormalizes the counts into the new topic-word matrix
(the "Driver" slice that §6 identifies as the next bottleneck).

The E-step is :class:`EStepSeqOp`: the per-document fold is its reference,
and a partition is folded in one column-major pass over all of its words
with the same bits (DESIGN §8, *LDA's partition E-step*).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..core.aggregation import tree_aggregate
from ..core.sai import drop_topk_residuals, split_aggregate
from ..core.spec import AggregationSpec
from ..rdd.costing import ELEMENT_OVERHEAD, Costed, sum_in_order
from ..rdd.rdd import RDD
from ..rdd.task_context import TaskContext
from .aggregators import (
    FlatAggregator,
    concat_op,
    reduce_op,
    split_op,
    support_of,
)
from .linalg import SparseVector
from .optimization import AGGREGATION_MODES, ScaledPayloadValue

__all__ = ["LDA", "LDAModel", "EStepSeqOp", "LDA_TOKEN_TIME"]

#: effective seconds per (topic, word) cell visited in the E-step on one
#: paper-grade core (a few fixed-point sweeps' worth of flops)
LDA_TOKEN_TIME = 1.0e-7

#: fixed-point sweeps per document in the E-step
_E_STEP_SWEEPS = 5


class LDAModel:
    """A fitted topic model."""

    def __init__(self, topics: np.ndarray, log_likelihoods: List[float],
                 doc_concentration: float, topic_concentration: float):
        #: row-stochastic ``K x V`` topic-word distribution
        self.topics = topics
        #: corpus log-likelihood per iteration (should be non-decreasing)
        self.log_likelihoods = list(log_likelihoods)
        self.doc_concentration = doc_concentration
        self.topic_concentration = topic_concentration


class EStepSeqOp(Costed):
    """LDA's ``seqOp``: the per-document E-step plus the partition fold.

    Called on one document it is the plain :class:`Costed` fold — five
    fixed-point sweeps of the document's topic mixture, its expected counts
    added into the ``K x V`` payload, its log-likelihood into the loss,
    charged ``k * nnz * per_token`` — which IMM merges and segment splits
    see and what the oracle tests compare against. The engine's partition
    folds call :meth:`fold_partition`, which does the same arithmetic for
    every document of the partition at once, bit for bit (DESIGN §8).
    """

    __slots__ = ("k", "alpha", "beta_of", "per_token")

    def __init__(self, k: int, alpha: float,
                 beta_of: Callable[[], np.ndarray], per_token: float):
        def fold(agg: FlatAggregator, doc: SparseVector) -> FlatAggregator:
            if doc.nnz == 0:
                return agg
            beta = beta_of()
            counts = agg.payload.reshape(beta.shape)
            beta_w = beta[:, doc.indices]  # K x nnz
            gamma = np.ones(k)
            for _ in range(_E_STEP_SWEEPS):
                phi = beta_w * gamma[:, None]
                phi /= phi.sum(axis=0, keepdims=True) + 1e-100
                gamma = alpha + phi @ doc.values
            counts[:, doc.indices] += phi * doc.values
            theta = gamma / gamma.sum()
            word_prob = theta @ beta_w + 1e-100
            agg.add_stats(float(doc.values @ np.log(word_prob)), 1.0)
            return agg

        def cost(_agg: FlatAggregator, doc: SparseVector) -> float:
            return k * doc.nnz * per_token

        super().__init__(fold, cost)
        self.k = k
        self.alpha = alpha
        self.beta_of = beta_of
        self.per_token = per_token

    def fold_partition(self, acc: FlatAggregator, data: list,
                       ctx: TaskContext) -> FlatAggregator:
        """Every document's E-step in one pass over the partition's words.

        The words of the non-empty documents are one column-major ``K x N``
        batch, so each sweep is a handful of whole-batch operations and one
        ``matmul`` per document over a column-block view — the operand and
        the BLAS call its per-document fold makes. What a document adds to
        the counts, its ``theta @ beta`` and its loss ``ddot`` stay one call
        per document, in partition order."""
        n = len(data)
        if n == 0:
            return acc
        k = self.k
        lengths = np.array([doc.indices.size for doc in data], dtype=np.int64)
        # virtual time: charged + c0 + c1 + ..., the per-document order;
        # an empty document is charged and not folded
        ctx.charged = sum_in_order(
            ctx.charged, k * lengths * self.per_token + ELEMENT_OVERHEAD, n)
        docs = [doc for doc in data if doc.indices.size]
        if not docs:
            return acc
        lengths = lengths[lengths > 0]
        indices = np.concatenate([doc.indices for doc in docs])
        values = np.concatenate([doc.values for doc in docs])
        bounds = [0, *np.cumsum(lengths).tolist()]
        spans = list(zip(bounds, bounds[1:]))
        beta = self.beta_of()
        # a fresh modelled-dense partial keeps K x (the partition's words)
        support = acc.takes_support(k * indices.size)
        if support:
            present, columns = support_of(indices, beta.shape[1])
            counts = np.zeros((k, present.size))
        else:
            columns = indices
            counts = acc.payload.reshape(beta.shape)

        words = beta[:, indices]  # K x N, column-major like beta[:, doc]
        phi = np.empty_like(words)
        sums = np.empty((len(docs), k))
        blocks = [(phi[:, lo:hi], values[lo:hi], out)
                  for (lo, hi), out in zip(spans, sums)]
        gamma = np.ones((len(docs), k))
        for _ in range(_E_STEP_SWEEPS):
            np.multiply(words, gamma.repeat(lengths, axis=0).T, out=phi)
            norms = phi.sum(axis=0)
            norms += 1e-100
            phi /= norms
            for block, vals, out in blocks:
                np.matmul(block, vals, out=out)
            gamma = self.alpha + sums

        phi *= values
        theta = gamma / gamma.sum(axis=1, keepdims=True)
        probs = np.empty(indices.size)
        for (lo, hi), mixture in zip(spans, theta):
            counts[:, columns[lo:hi]] += phi[:, lo:hi]
            np.matmul(mixture, words[:, lo:hi], out=probs[lo:hi])
        probs += 1e-100
        np.log(probs, out=probs)
        losses = [values[lo:hi] @ probs[lo:hi] for lo, hi in spans]
        if support:  # row t of the K x V payload starts at t * V
            vocab = beta.shape[1]
            acc.adopt_support(
                (np.arange(0, k * vocab, vocab)[:, None]
                 + present).reshape(-1),
                counts.reshape(-1))
        acc.set_stats(sum_in_order(acc.loss_sum, losses, len(docs)),
                      sum_in_order(acc.weight_sum, 1.0, len(docs)))
        return acc


class LDA:
    """EM trainer for LDA over an RDD of word-count vectors."""

    def __init__(self, k: int = 10, num_iterations: int = 10,
                 doc_concentration: float = 0.1,
                 topic_concentration: float = 0.01,
                 aggregation: str = "tree",
                 spec: Optional[AggregationSpec] = None,
                 size_scale: float = 1.0, sample_scale: float = 1.0,
                 token_time: float = LDA_TOKEN_TIME, seed: int = 7):
        if aggregation not in AGGREGATION_MODES:
            raise ValueError(
                f"aggregation must be one of {AGGREGATION_MODES}, "
                f"got {aggregation!r}")
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        if num_iterations < 1:
            raise ValueError(f"need at least one iteration: {num_iterations}")
        self.k = k
        self.num_iterations = num_iterations
        self.doc_concentration = doc_concentration
        self.topic_concentration = topic_concentration
        self.aggregation = aggregation
        self.spec = AggregationSpec.of(spec)
        self.size_scale = size_scale
        self.sample_scale = sample_scale
        self.token_time = token_time
        self.seed = seed

    # ------------------------------------------------------------------- fit
    def fit(self, corpus: RDD, vocab_size: int) -> LDAModel:
        """Train on an RDD of :class:`SparseVector` word-count vectors."""
        if vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1: {vocab_size}")
        sc = corpus.sc
        k, vocab = self.k, vocab_size
        rng = np.random.default_rng(self.seed)
        beta = rng.random((k, vocab)) + 0.01
        beta /= beta.sum(axis=1, keepdims=True)
        alpha = self.doc_concentration
        eta = self.topic_concentration
        log_likelihoods: List[float] = []

        per_token = self.token_time * self.sample_scale
        drop_topk_residuals(sc)

        for _iteration in range(1, self.num_iterations + 1):
            with sc.stopwatch.span("ml.broadcast"):
                bc = sc.broadcast(ScaledPayloadValue(
                    beta, k * vocab * 8.0 * self.size_scale))

            seq_op = EStepSeqOp(k, alpha, lambda: bc.value.value, per_token)
            merge = Costed(lambda a, b: a.merge(b), 0.0)
            size_scale = self.size_scale
            zero = lambda: FlatAggregator(k * vocab, size_scale)  # noqa: E731

            if self.aggregation == "split":
                agg = split_aggregate(
                    corpus, zero, seq_op, split_op, reduce_op, concat_op,
                    self.spec, merge_op=merge)
            else:
                agg = tree_aggregate(
                    corpus, zero, seq_op, merge,
                    imm=(self.aggregation == "tree_imm"))
            bc.destroy()

            # --- driver M-step: renormalize counts into the new beta ------
            with sc.stopwatch.span("ml.driver"):
                counts = agg.payload.reshape(k, vocab)
                beta = counts + eta
                beta /= beta.sum(axis=1, keepdims=True)
                log_likelihoods.append(agg.loss_sum)
                # MLlib's EM driver step is many passes over the K x V
                # global parameters (normalization, ELBO terms, Dirichlet
                # updates in Breeze, plus the attendant JVM allocation
                # churn) — modeled as ~20 memory passes. This is the
                # non-scalable "Driver" slice that §6 calls the next
                # bottleneck at 960 cores.
                driver_seconds = (20.0 * k * vocab * 8.0 * self.size_scale
                                  / sc.cluster.config.merge_bandwidth)
                proc = sc.env.process(sc.driver_work(driver_seconds))
                sc.env.run(until=proc)

        return LDAModel(beta, log_likelihoods, alpha, eta)
