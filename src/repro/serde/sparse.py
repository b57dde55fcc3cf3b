"""Sparse (index, value) kernels shared by the adaptive aggregation path.

SparCML (Renggli et al.) and S2 Reducer (Ge et al.) represent sparse
reduction operands as sorted (index, value) pair arrays and switch to a
dense representation once partial sums densify. The kernels here are the
arithmetic core of that representation for this repo's adaptive
aggregators; they live in ``repro.serde`` because every layer above
(``ml``, ``core``, ``comm``) needs them and serde has no internal
dependencies.

Bit-identity contract: the adaptive sparse path must produce *bit-identical*
results to the dense reference. Two facts make that possible:

* every accumulation starts from ``+0.0`` and IEEE-754 addition of finite
  values is commutative bit-for-bit, so per-index totals do not depend on
  which representation holds them (``x + 0.0 == x`` bitwise for every
  ``x`` that can appear: ``-0.0`` can never be produced starting from
  ``+0.0``);
* :func:`coalesce_chunks` sums duplicate indices with ``np.add.at``, which
  is unbuffered and processes elements in order — per-index contributions
  are summed in exactly the insertion order a dense ``np.add.at`` scatter
  would have used.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "coalesce_chunks",
    "merge_sparse",
    "slice_sparse",
    "densify_sparse",
    "scatter_into",
    "topk_indices",
    "topk_sparsify",
]

_EMPTY_IDX = np.empty(0, dtype=np.int64)
_EMPTY_VAL = np.empty(0, dtype=np.float64)


def coalesce_chunks(index_chunks: Sequence[np.ndarray],
                    value_chunks: Sequence[np.ndarray]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Sum a list of (index, value) chunks into one sorted deduplicated pair.

    Duplicate indices are summed in chunk-then-element order (the order the
    contributions were appended), matching the dense scatter history.
    """
    if len(index_chunks) != len(value_chunks):
        raise ValueError(
            f"{len(index_chunks)} index chunks vs {len(value_chunks)} "
            f"value chunks")
    if not index_chunks:
        return _EMPTY_IDX, _EMPTY_VAL
    idx = np.concatenate(index_chunks) if len(index_chunks) > 1 \
        else np.asarray(index_chunks[0], dtype=np.int64)
    vals = np.concatenate(value_chunks) if len(value_chunks) > 1 \
        else np.asarray(value_chunks[0], dtype=np.float64)
    if idx.size == 0:
        return _EMPTY_IDX, _EMPTY_VAL
    unique, inverse = np.unique(idx, return_inverse=True)
    totals = np.zeros(unique.size)
    np.add.at(totals, inverse, vals)
    return unique.astype(np.int64, copy=False), totals


def merge_sparse(a_idx: np.ndarray, a_vals: np.ndarray,
                 b_idx: np.ndarray, b_vals: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Sum two coalesced sparse operands into one coalesced pair.

    The operands are sorted and unique, so a stable sort of their joined
    indices is one merge of two runs; each entry then lands at its index's
    rank in the union. Totals start from zeros as in
    :func:`coalesce_chunks`: a shared index holds ``(0.0 + a) + b`` and a
    lone one ``0.0 + a``, bit for bit what that function sums.
    """
    idx = np.concatenate((a_idx, b_idx))
    order = np.argsort(idx, kind="stable")
    merged = idx[order]
    first = np.empty(merged.size, dtype=bool)
    first[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    pos = np.empty(merged.size, dtype=np.intp)
    pos[order] = np.cumsum(first) - 1
    totals = np.zeros(np.count_nonzero(first))
    totals[pos[:len(a_idx)]] += a_vals
    totals[pos[len(a_idx):]] += b_vals
    return merged[first].astype(np.int64, copy=False), totals


def slice_sparse(idx: np.ndarray, vals: np.ndarray, lo: int, hi: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Entries with ``lo <= index < hi``, rebased to start at zero.

    ``idx`` must be sorted (the coalesced form); the window is found with
    two binary searches.
    """
    i0 = int(np.searchsorted(idx, lo, side="left"))
    i1 = int(np.searchsorted(idx, hi, side="left"))
    return idx[i0:i1] - lo, vals[i0:i1]


def densify_sparse(idx: np.ndarray, vals: np.ndarray,
                   length: int) -> np.ndarray:
    """A dense buffer holding a coalesced sparse operand.

    Plain assignment (not addition) into fresh zeros: the stored totals
    are placed bit-exactly.
    """
    out = np.zeros(int(length))
    out[idx] = vals
    return out


def scatter_into(dense: np.ndarray, idx: np.ndarray,
                 vals: np.ndarray) -> None:
    """In-place ``dense[idx] += vals`` with duplicate-safe ordering."""
    np.add.at(dense, idx, vals)


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-magnitude entries, fully deterministic.

    Magnitude ties break toward the **lower index** (a total order, so two
    executors holding equal buffers always select the same coordinates);
    the result is sorted ascending, ready for the coalesced sparse form.
    """
    values = np.asarray(values, dtype=np.float64)
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= values.size:
        return np.arange(values.size, dtype=np.int64)
    # lexsort's last key is primary: magnitude descending, index ascending
    order = np.lexsort((np.arange(values.size), -np.abs(values)))
    return np.sort(order[:k]).astype(np.int64, copy=False)


def topk_sparsify(values: np.ndarray, k: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k sparsification with an exact carry: ``(idx, sent, residual)``.

    ``sent`` holds the k largest-magnitude entries (coalesced sparse form)
    and ``residual`` the unsent remainder, satisfying the residual-carry
    identity ``densify_sparse(idx, sent, n) + residual == values`` — the
    selected slots of the residual are zeroed, every other slot keeps its
    input bits, so error feedback loses nothing.
    """
    values = np.asarray(values, dtype=np.float64)
    idx = topk_indices(values, k)
    sent = values[idx]
    residual = values.copy()
    residual[idx] = 0.0
    return idx, sent, residual
