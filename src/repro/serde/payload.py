"""Size-scaled payloads: small physical arrays posing as paper-scale data.

The paper's micro-benchmarks move 256 MB aggregators between 48 executors;
materializing that physically would need tens of gigabytes on the test
machine. :class:`SizedPayload` holds a *real* NumPy array (so every merge,
split and concat in the pipeline is genuinely computed and checkable) while
declaring a larger *simulated* size through the ``__sim_size__`` protocol.
Splitting a payload splits both the physical array and the simulated size
proportionally, so segment costs stay exact.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["SizedPayload", "segment_range"]


class SizedPayload:
    """A NumPy vector with an independent simulated byte size.

    Parameters
    ----------
    data:
        Physical 1-D array; all arithmetic happens on it for real.
    sim_bytes:
        Simulated serialized size in bytes; defaults to ``data.nbytes``
        (scale factor 1).
    """

    __slots__ = ("data", "sim_bytes")

    def __init__(self, data: np.ndarray, sim_bytes: float | None = None):
        data = np.asarray(data)
        if data.ndim != 1:
            raise ValueError(f"payload must be 1-D, got shape {data.shape}")
        self.data = data
        self.sim_bytes = float(data.nbytes if sim_bytes is None else sim_bytes)
        if self.sim_bytes < 0:
            raise ValueError(f"negative simulated size: {self.sim_bytes}")

    # ------------------------------------------------------------- protocol
    def __sim_size__(self) -> float:
        return self.sim_bytes

    def __len__(self) -> int:
        return len(self.data)


    # ------------------------------------------------------------ operations
    def merge(self, other: "SizedPayload") -> "SizedPayload":
        """Element-wise sum; simulated size is preserved (not doubled)."""
        if len(other.data) != len(self.data):
            raise ValueError(
                f"length mismatch: {len(self.data)} vs {len(other.data)}"
            )
        return SizedPayload(self.data + other.data,
                            max(self.sim_bytes, other.sim_bytes))

    def merge_inplace(self, other: "SizedPayload") -> "SizedPayload":
        """In-place element-wise sum (hot path; avoids a copy)."""
        if len(other.data) != len(self.data):
            raise ValueError(
                f"length mismatch: {len(self.data)} vs {len(other.data)}"
            )
        self.data += other.data
        self.sim_bytes = max(self.sim_bytes, other.sim_bytes)
        return self

    def split(self, index: int, num_segments: int) -> "SizedPayload":
        """Segment ``index`` of ``num_segments`` (contiguous block split).

        Returns a view-backed payload whose simulated size is the exact
        proportional share of this payload's simulated size.
        """
        if not 0 <= index < num_segments:
            raise IndexError(f"segment {index} of {num_segments}")
        n = len(self.data)
        lo, hi = segment_range(n, num_segments, index)
        frac = (hi - lo) / n if n else 0.0
        return SizedPayload(self.data[lo:hi], self.sim_bytes * frac)

    @staticmethod
    def concat(segments: Sequence["SizedPayload"]) -> "SizedPayload":
        """Concatenate segments back into a single payload."""
        if not segments:
            raise ValueError("cannot concatenate zero segments")
        data = np.concatenate([s.data for s in segments])
        return SizedPayload(data, sum(s.sim_bytes for s in segments))

    # Chunk protocol (pipelined_ring): a segment splits into elementwise
    # chunk columns and reassembles by concatenation. For a contiguous
    # array payload both directions coincide with the block split.
    chunk_split = split
    chunk_concat = concat

    def __repr__(self) -> str:
        return (f"<SizedPayload n={len(self.data)} "
                f"sim_bytes={self.sim_bytes:.0f}>")


def segment_range(n: int, num_segments: int, index: int) -> tuple:
    """``(lo, hi)`` of block ``index`` when ``n`` elements are divided into
    ``num_segments`` blocks, in O(1) (hot path: splitting into hundreds of
    segments).

    The first ``n % num_segments`` blocks get one extra element, matching
    the usual MPI block distribution.
    """
    if num_segments < 1:
        raise ValueError(f"num_segments must be >= 1, got {num_segments}")
    if not 0 <= index < num_segments:
        raise IndexError(f"segment {index} of {num_segments}")
    base, extra = divmod(n, num_segments)
    lo = index * base + min(index, extra)
    hi = lo + base + (1 if index < extra else 0)
    return lo, hi
