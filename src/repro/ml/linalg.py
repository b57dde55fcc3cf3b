"""Minimal linear algebra for the ML layer: sparse vectors, labeled points.

Feature vectors in the paper's workloads (libsvm format, up to 54M
dimensions) are extremely sparse, so the data representation is a classic
index/value pair of NumPy arrays. All hot operations (``dot``, ``add_to``)
are vectorized gathers/scatters — no Python-level loops over non-zeros.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["SparseVector", "LabeledPoint"]


class SparseVector:
    """An immutable sparse vector over ``float64``.

    Parameters
    ----------
    size:
        Dimensionality of the (mostly zero) dense space.
    indices:
        Strictly increasing non-zero positions.
    values:
        Non-zero values, aligned with ``indices``.
    """

    __slots__ = ("size", "indices", "values")

    def __init__(self, size: int, indices: Sequence[int],
                 values: Sequence[float]):
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise ValueError(
                f"indices {indices.shape} and values {values.shape} must be "
                f"aligned 1-D arrays")
        if size < 0:
            raise ValueError(f"negative size: {size}")
        if indices.size:
            if indices[0] < 0 or indices[-1] >= size:
                raise ValueError(
                    f"indices out of range [0, {size}): "
                    f"[{indices[0]}, {indices[-1]}]")
            if np.any(np.diff(indices) <= 0):
                raise ValueError("indices must be strictly increasing")
        self.size = int(size)
        self.indices = indices
        self.values = values

    # ------------------------------------------------------------- properties
    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return int(self.indices.size)

    def __sim_size__(self) -> float:
        # 8B value + 4B index per non-zero, like Spark's SparseVector.
        return 12.0 * self.nnz + 16.0

    # -------------------------------------------------------------- operations
    def dot(self, dense: np.ndarray) -> float:
        """Inner product with a dense vector."""
        if dense.shape[0] != self.size:
            raise ValueError(
                f"dimension mismatch: {self.size} vs {dense.shape[0]}")
        return float(dense[self.indices] @ self.values)

    def add_to(self, target, scale: float = 1.0) -> None:
        """In-place ``target[indices] += scale * values`` (axpy).

        ``target`` is either a dense array or a sparse-accumulation object
        with a ``scatter_add(indices, values)`` method (the adaptive
        aggregation path); the scaled contributions are identical bitwise
        either way.
        """
        if isinstance(target, np.ndarray):
            if target.shape[0] != self.size:
                raise ValueError(
                    f"dimension mismatch: {self.size} vs {target.shape[0]}")
            # Indices are strictly increasing (validated in __init__), so
            # the unbuffered np.add.at — only needed for duplicate indices
            # — can be the plain fancy-index +=, which is several times
            # faster and performs the identical per-element IEEE adds.
            target[self.indices] += (self.values if scale == 1.0
                                     else scale * self.values)
            return
        if target.size != self.size:
            raise ValueError(
                f"dimension mismatch: {self.size} vs {target.size}")
        target.scatter_add(self.indices, scale * self.values)

    def __repr__(self) -> str:
        return f"<SparseVector size={self.size} nnz={self.nnz}>"


class LabeledPoint:
    """A training example: a label and a sparse feature vector."""

    __slots__ = ("label", "features")

    def __init__(self, label: float, features: SparseVector):
        self.label = float(label)
        self.features = features

    def __sim_size__(self) -> float:
        return 8.0 + self.features.__sim_size__()

    def __repr__(self) -> str:
        return f"<LabeledPoint y={self.label:g} {self.features!r}>"
