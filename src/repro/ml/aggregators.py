"""Model aggregators mirroring the paper's Figure 7 (``Agg`` / ``AggSeg``).

MLlib's ``RDDLossFunction`` folds samples into an aggregator object holding
dense arrays (gradient sum + loss statistics). Figure 7 distils that into
an abstract ``Agg`` (constructed by ``seqOp``, knows how to ``add`` a
sample) and a merge-only ``AggSeg`` segment type, with ``splitA``/``concatA``
slicing the underlying arrays.

Here the aggregator state is one flat ``float64`` buffer::

    [ payload (model-specific) ..., loss_sum, weight_sum ]

so that splitting, merging, and concatenation are plain array slices and
sums — exactly the structure split aggregation exploits. The buffer carries
a *simulated* size (``dim_logical * 8`` bytes) so communication is costed
at paper-scale aggregator sizes even when the surrogate dimensionality is
laptop-sized (DESIGN.md §2).

Density-adaptive mode (SparCML / S2-Reducer lineage, DESIGN.md §8): when a
:class:`~repro.serde.SparsePolicy` is attached, the aggregator starts as a
:class:`SparseAccumulator` of (index, value) chunks, densifies in place
once nnz/size crosses the policy threshold, and splits into
:class:`AggregatorSegment` objects that carry their representation so ring
hops and IMM merges can pick sparse-sparse / sparse-dense / dense kernels
and re-evaluate the wire-format switch per send. The adaptive path is
bit-identical to the dense reference (see ``repro.serde.sparse``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..serde import (
    DEFAULT_SPARSE_POLICY,
    SparsePolicy,
    coalesce_chunks,
    densify_sparse,
    merge_sparse,
    scatter_into,
    segment_range,
    slice_sparse,
    topk_sparsify,
)

__all__ = ["FlatAggregator", "AggregatorSegment", "SparseAccumulator",
           "split_op", "reduce_op", "concat_op"]

#: trailing statistics slots in every aggregator buffer
_STATS_SLOTS = 2

#: coalesce a sparse accumulator once this many uncoalesced entries pile up
#: (or the policy's densify point, whichever is larger) — bounds memory at
#: O(threshold * size) regardless of how many samples are folded
_COALESCE_MIN = 4096

#: where a modelled-dense partial stores itself densely: an entry of the
#: support form (int32 position + float64 total, 12 B) costs 1.5 dense
#: slots, so it breaks even at two thirds of the payload
_HOST_STORAGE = SparsePolicy(density_threshold=2 / 3)

#: largest payload whose positions a host-sparse partial keeps as int32
_INT32_MAX = np.iinfo(np.int32).max

_EMPTY_IDX = np.empty(0, dtype=np.int64)
_EMPTY_VAL = np.empty(0, dtype=np.float64)


def support_of(indices: np.ndarray, size: int
               ) -> Tuple[np.ndarray, np.ndarray]:
    """``(positions, slot)``: the distinct values of ``indices`` (each in
    ``[0, size)``), sorted, and each entry's position among them — int32
    where ``size`` allows. One mark pass over ``size`` slots, no sort."""
    dtype = np.int32 if size <= _INT32_MAX else np.int64
    marked = np.zeros(size, dtype=bool)
    marked[indices] = True
    positions = np.flatnonzero(marked).astype(dtype)
    slot_of = np.empty(size, dtype=dtype)
    slot_of[positions] = np.arange(positions.size, dtype=dtype)
    return positions, slot_of[indices]


class SparseAccumulator:
    """Chunked sparse accumulation target with in-place densification.

    ``seqOp`` scatters (index, value) contributions with
    :meth:`scatter_add`; chunks are appended without touching the rest of
    the state, coalesced (sorted + deduplicated) once enough entries pile
    up, and replaced by one dense buffer the moment the coalesced nnz
    crosses ``policy.density_threshold * size``. All three states hold
    bit-identical per-index totals to a dense ``np.add.at`` history.
    """

    __slots__ = ("size", "policy", "buf", "_index_chunks", "_value_chunks",
                 "_pending", "_coalesced", "_limit", "version")

    def __init__(self, size: int, policy: SparsePolicy):
        if size < 0:
            raise ValueError(f"negative size: {size}")
        self.size = int(size)
        self.policy = policy
        #: dense buffer once densified, None while sparse
        self.buf: Optional[np.ndarray] = None
        self._index_chunks: list = []
        self._value_chunks: list = []
        self._pending = 0
        self._coalesced = True
        self._limit = max(_COALESCE_MIN,
                          int(policy.density_threshold * size))
        #: mutation counter — bumped whenever stored entries change, so
        #: size estimates keyed on it can be memoized safely
        self.version = 0

    # ------------------------------------------------------------- properties
    @property
    def is_dense(self) -> bool:
        return self.buf is not None

    @property
    def nnz(self) -> int:
        """Stored entries (an upper bound between coalesces)."""
        return self.size if self.buf is not None else self._pending

    @property
    def density(self) -> float:
        return (self.nnz / self.size) if self.size else 1.0

    # ------------------------------------------------------------- operations
    def scatter_add(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Accumulate ``values`` at ``indices`` (duplicates allowed)."""
        self.version += 1
        if self.buf is not None:
            np.add.at(self.buf, indices, values)
            return
        self._index_chunks.append(indices)
        self._value_chunks.append(values)
        self._pending += len(indices)
        self._coalesced = False
        if self._pending >= self._limit:
            self.coalesce()

    def scatter_add_rows(self, indices: np.ndarray, values: np.ndarray,
                         row_ends: np.ndarray) -> None:
        """One :meth:`scatter_add` per row, without the per-row calls.

        Row ``r`` is ``indices[row_ends[r-1]:row_ends[r]]``. The state
        afterwards — totals, pending count, where it coalesced and where
        it densified — is that of scattering the rows one at a time: a
        coalesce can only fire at the row whose entries take the pending
        count to the limit, so whole stretches of rows between those
        points are appended as one chunk.
        """
        row, num_rows, lo = 0, len(row_ends), 0
        while row < num_rows and self.buf is None:
            reach = lo + self._limit - self._pending
            row = max(row, int(np.searchsorted(row_ends, reach))) + 1
            hi = int(row_ends[min(row, num_rows) - 1])
            self.scatter_add(indices[lo:hi], values[lo:hi])
            lo = hi
        if lo < len(indices):
            self.scatter_add(indices[lo:], values[lo:])

    def coalesce(self) -> None:
        """Deduplicate pending chunks; densify if over the threshold."""
        if self.buf is not None:
            return
        if not self._coalesced:
            idx, vals = coalesce_chunks(self._index_chunks,
                                        self._value_chunks)
            self._index_chunks = [idx]
            self._value_chunks = [vals]
            self._pending = int(idx.size)
            self._coalesced = True
            self.version += 1
        if self.policy.should_densify(self._pending, self.size):
            self._densify()

    def densify(self) -> None:
        """Switch to the dense representation now, regardless of density."""
        if self.buf is not None:
            return
        self.coalesce()
        if self.buf is None:
            self._densify()

    def _densify(self) -> None:
        self.version += 1
        if self._index_chunks:
            self.buf = densify_sparse(self._index_chunks[0],
                                      self._value_chunks[0], self.size)
        else:
            self.buf = np.zeros(self.size)
        self._index_chunks = []
        self._value_chunks = []
        self._pending = self.size

    def indices_values(self) -> Tuple[np.ndarray, np.ndarray]:
        """Coalesced (indices, values); only valid while sparse."""
        if self.buf is not None:
            raise RuntimeError("accumulator has densified")
        self.coalesce()
        if self.buf is not None:
            raise RuntimeError("accumulator densified during coalesce")
        if not self._index_chunks:
            return _EMPTY_IDX, _EMPTY_VAL
        return self._index_chunks[0], self._value_chunks[0]

    def write_into(self, out: np.ndarray) -> None:
        """Write the accumulated totals into ``out`` (assumed zeroed)."""
        if self.buf is None:
            self.coalesce()
        if self.buf is not None:
            out[:] = self.buf
        elif self._index_chunks:
            out[self._index_chunks[0]] = self._value_chunks[0]

    def adopt(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Take coalesced ``indices`` (sorted, unique) and their totals as
        the whole state of an accumulator nothing was scattered into."""
        if self._pending or self.buf is not None:
            raise RuntimeError("accumulator is not empty")
        self.version += 1
        if indices.size:
            self._index_chunks = [indices]
            self._value_chunks = [values]
            self._pending = int(indices.size)

    def merge_accumulator(self, other: "SparseAccumulator") -> None:
        """Fold ``other``'s totals into this accumulator in place."""
        if other.size != self.size:
            raise ValueError(
                f"accumulator size mismatch: {self.size} vs {other.size}")
        self.version += 1
        if other.buf is not None:
            if self.buf is None:
                self.densify()
            self.buf += other.buf
            return
        idx, vals = other.indices_values()
        if idx.size:
            self.scatter_add(idx, vals)

    def copy(self) -> "SparseAccumulator":
        out = SparseAccumulator(self.size, self.policy)
        out.buf = None if self.buf is None else self.buf.copy()
        out._index_chunks = list(self._index_chunks)
        out._value_chunks = list(self._value_chunks)
        out._pending = self._pending
        out._coalesced = self._coalesced
        out.version = self.version
        return out

    def __repr__(self) -> str:
        state = "dense" if self.buf is not None else "sparse"
        return (f"<SparseAccumulator size={self.size} {state} "
                f"nnz~{self.nnz}>")


class AggregatorSegment:
    """``AggSeg`` of Figure 7: a merge-only slice of an aggregator buffer.

    A segment is either *dense* (``buf`` holds the slice) or *sparse*
    (``indices``/``values`` hold coalesced non-zeros over ``length``
    positions); ``sim_bytes`` is always the segment's **dense-equivalent**
    simulated size, while :meth:`__sim_size__` reports the bytes of the
    cheaper wire format — the SparCML switch every send re-evaluates.

    ``owned`` marks buffers this segment may mutate: merge results and
    densified copies are owned, slices of a live aggregator are not, so
    in-place merging never corrupts a view another rank still reads.
    """

    __slots__ = ("buf", "indices", "values", "length", "sim_bytes",
                 "policy", "owned", "_wire_cache")

    def __init__(self, buf: np.ndarray, sim_bytes: float, *,
                 policy: Optional[SparsePolicy] = None, owned: bool = False):
        self.buf = np.asarray(buf, dtype=np.float64)
        self.indices: Optional[np.ndarray] = None
        self.values: Optional[np.ndarray] = None
        self.length = int(self.buf.size)
        self.sim_bytes = float(sim_bytes)
        self.policy = policy
        self.owned = bool(owned)
        self._wire_cache: Optional[float] = None
        if self.sim_bytes < 0:
            raise ValueError(f"negative simulated size: {sim_bytes}")

    @classmethod
    def sparse(cls, length: int, indices: np.ndarray, values: np.ndarray,
               sim_bytes: float, *, policy: Optional[SparsePolicy] = None,
               owned: bool = True) -> "AggregatorSegment":
        """A segment from coalesced sparse entries (densifies if due).

        ``indices`` must be sorted and unique (the coalesced form);
        ``sim_bytes`` is the dense-equivalent size, same as the dense
        constructor.
        """
        # sparse construction implies the adaptive mode
        policy = policy or DEFAULT_SPARSE_POLICY
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise ValueError(
                f"indices {indices.shape} and values {values.shape} must "
                f"be aligned 1-D arrays")
        if policy.should_densify(indices.size, length):
            return cls(densify_sparse(indices, values, int(length)),
                       sim_bytes, policy=policy, owned=True)
        seg = cls.__new__(cls)
        seg.buf = None
        seg.indices = indices
        seg.values = values
        seg.length = int(length)
        seg.sim_bytes = float(sim_bytes)
        seg.policy = policy
        seg.owned = bool(owned)
        seg._wire_cache = None
        if seg.sim_bytes < 0:
            raise ValueError(f"negative simulated size: {sim_bytes}")
        return seg

    # ------------------------------------------------------------- properties
    @property
    def is_sparse(self) -> bool:
        return self.buf is None

    @property
    def representation(self) -> str:
        return "sparse" if self.buf is None else "dense"

    @property
    def nnz(self) -> int:
        return int(self.indices.size) if self.buf is None else self.length

    @property
    def density(self) -> float:
        return (self.nnz / self.length) if self.length else 1.0

    def __sim_size__(self) -> float:
        """Bytes of the cheaper wire format (the per-send switch).

        Memoized: sparse segments are immutable after construction (merges
        that mutate in place only ever have a dense ``self``), so the wire
        size is computed once. Mutating merge branches drop the cache when
        they reassign ``sim_bytes``.
        """
        if self.buf is not None:
            return self.sim_bytes
        size = self._wire_cache
        if size is None:
            policy = self.policy
            dense = policy.dense_wire_bytes(self.length)
            scale = self.sim_bytes / dense if dense > 0 else 1.0
            size = policy.wire_bytes(self.indices.size, self.length, scale)
            self._wire_cache = size
        return size

    def __sim_dense_size__(self) -> float:
        return self.sim_bytes

    def to_array(self) -> np.ndarray:
        """The segment's dense values (the stored buffer when dense)."""
        if self.buf is not None:
            return self.buf
        return densify_sparse(self.indices, self.values, self.length)

    # ------------------------------------------------------------- operations
    def merge(self, other: "AggregatorSegment") -> "AggregatorSegment":
        """Element-wise sum (both of Figure 7's ``merge`` methods).

        Representation-adaptive: picks the sparse-sparse, sparse-dense or
        dense kernel, merging in place into an owned dense destination.
        The result may densify if the policy says the union crossed the
        threshold. ``other`` is never mutated.
        """
        if other.length != self.length:
            raise ValueError(
                f"segment shape mismatch: ({self.length},) vs "
                f"({other.length},)")
        sim = max(self.sim_bytes, other.sim_bytes)
        policy = self.policy if self.policy is not None else other.policy
        if self.buf is not None and other.buf is not None:
            if self.owned:
                np.add(self.buf, other.buf, out=self.buf)
                self.sim_bytes = sim
                self._wire_cache = None
                return self
            return AggregatorSegment(self.buf + other.buf, sim,
                                     policy=policy, owned=True)
        if self.buf is None and other.buf is None:
            idx, vals = merge_sparse(self.indices, self.values,
                                     other.indices, other.values)
            return AggregatorSegment.sparse(self.length, idx, vals, sim,
                                            policy=policy, owned=True)
        if self.buf is None:  # sparse self into a copy of dense other
            out = other.buf.copy()
            scatter_into(out, self.indices, self.values)
            return AggregatorSegment(out, sim, policy=policy, owned=True)
        # dense self + sparse other
        if self.owned:
            scatter_into(self.buf, other.indices, other.values)
            self.sim_bytes = sim
            self._wire_cache = None
            return self
        out = self.buf.copy()
        scatter_into(out, other.indices, other.values)
        return AggregatorSegment(out, sim, policy=policy, owned=True)

    def chunk_split(self, index: int,
                    num_chunks: int) -> "AggregatorSegment":
        """Chunk column ``index`` of ``num_chunks`` (pipelined_ring).

        The same block distribution as :meth:`FlatAggregator.split`, one
        level down: chunk boundaries depend only on ``(length,
        num_chunks)`` so every rank slices identically, and an elementwise
        merge of matching chunks is bit-identical to the corresponding
        slice of a whole-segment merge. Dense chunks are views (unowned);
        sparse chunks re-run the wire-format switch on their own density.
        """
        lo, hi = segment_range(self.length, num_chunks, index)
        frac = (hi - lo) / self.length if self.length else 0.0
        dense_bytes = self.sim_bytes * frac
        if self.buf is not None:
            return AggregatorSegment(self.buf[lo:hi], dense_bytes,
                                     policy=self.policy)
        idx, vals = slice_sparse(self.indices, self.values, lo, hi)
        return AggregatorSegment.sparse(hi - lo, idx, vals, dense_bytes,
                                        policy=self.policy, owned=False)

    @staticmethod
    def chunk_concat(parts: Sequence["AggregatorSegment"]
                     ) -> "AggregatorSegment":
        """Reassemble chunk columns into one segment (pipelined_ring).

        All-sparse parts stay sparse (indices rebased onto the combined
        length, preserving the honest wire size at gather time); any dense
        part densifies the result.
        """
        if not parts:
            raise ValueError("cannot concatenate zero chunks")
        if len(parts) == 1:
            return parts[0]
        sim = sum(p.sim_bytes for p in parts)
        policy = next((p.policy for p in parts if p.policy is not None),
                      None)
        total = sum(p.length for p in parts)
        if all(p.buf is None for p in parts):
            offsets = np.cumsum([0] + [p.length for p in parts[:-1]])
            idx = np.concatenate(
                [p.indices + off for p, off in zip(parts, offsets)])
            vals = np.concatenate([p.values for p in parts])
            return AggregatorSegment.sparse(total, idx, vals, sim,
                                            policy=policy, owned=True)
        buf = np.concatenate([p.to_array() for p in parts])
        return AggregatorSegment(buf, sim, policy=policy, owned=True)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (f"<AggregatorSegment n={self.length} "
                f"{self.representation} sim={self.sim_bytes:.0f}B>")


class FlatAggregator:
    """``Agg`` of Figure 7: a sample-foldable aggregator over a flat buffer.

    Parameters
    ----------
    payload_size:
        Physical length of the model-specific payload (e.g. the gradient
        dimension, or K*V for LDA).
    size_scale:
        Ratio of the paper-scale aggregator size to the surrogate size;
        the simulated byte size of the aggregator is
        ``(payload_size + 2) * 8 * size_scale``.
    buf:
        Optional pre-filled dense buffer (``payload_size + 2`` long).
    policy:
        The modelled representation. When given (and no ``buf``), the
        aggregator starts in the density-adaptive sparse representation:
        ``payload`` is a :class:`SparseAccumulator` until it densifies,
        after which the aggregator collapses to the classic dense layout.
        All observable values are bit-identical to the dense reference
        either way.

    Host storage follows the data; ``policy`` alone sets what is
    modelled. Without a ``policy`` the aggregator is modelled dense —
    ``representation``, ``density``, ``payload_nnz`` and
    ``__sim_size__`` say so — but a fresh one holds no dense buffer: it is
    a :class:`SparseAccumulator`'s coalesced state, the support a
    partition fold hands it (:meth:`adopt_support`). ``buf``,
    ``payload``, ``split``, ``topk``, ``to_dense`` and a ``merge`` into it
    densify it first.
    """

    __slots__ = ("_buf", "payload_size", "size_scale", "policy", "_acc",
                 "_stats", "_dense_size", "_wire_cache")

    def __init__(self, payload_size: int, size_scale: float = 1.0,
                 buf: np.ndarray | None = None,
                 policy: Optional[SparsePolicy] = None):
        if payload_size < 0:
            raise ValueError(f"negative payload size: {payload_size}")
        if size_scale <= 0:
            raise ValueError(f"size_scale must be positive: {size_scale}")
        self.payload_size = int(payload_size)
        self.size_scale = float(size_scale)
        self.policy = policy
        self._acc: Optional[SparseAccumulator] = None
        self._stats: Optional[np.ndarray] = None
        self._dense_size: Optional[float] = None
        self._wire_cache: Optional[Tuple[int, float]] = None
        if buf is None:
            self._buf = None
            self._acc = SparseAccumulator(payload_size,
                                          policy or _HOST_STORAGE)
            self._stats = np.zeros(_STATS_SLOTS)
        else:
            buf = np.asarray(buf, dtype=np.float64)
            if buf.size != payload_size + _STATS_SLOTS:
                raise ValueError(
                    f"buffer length {buf.size} != payload {payload_size} "
                    f"+ {_STATS_SLOTS}")
            self._buf = buf

    # ---------------------------------------------------- representation sync
    def _sync(self) -> None:
        """Collapse to the classic dense layout once the accumulator has
        densified internally (a copy; bits are preserved exactly)."""
        acc = self._acc
        if acc is None or acc.buf is None:
            return
        buf = np.empty(self.payload_size + _STATS_SLOTS)
        buf[:self.payload_size] = acc.buf
        buf[self.payload_size:] = self._stats
        self._buf = buf
        self._acc = None
        self._stats = None

    def _compact(self) -> None:
        """Coalesce the sparse state and sync if it densified."""
        if self._acc is not None:
            self._acc.coalesce()
            self._sync()

    def to_dense(self) -> "FlatAggregator":
        """Force the classic dense layout in place; returns self."""
        if self._buf is None:
            acc = self._acc
            buf = np.zeros(self.payload_size + _STATS_SLOTS)
            acc.write_into(buf[:self.payload_size])
            buf[self.payload_size:] = self._stats
            self._buf = buf
            self._acc = None
            self._stats = None
        return self

    def takes_support(self, entries: int) -> bool:
        """Whether a partition fold of ``entries`` contributions hands
        this aggregator their support (:meth:`adopt_support`) instead of
        scattering into :attr:`payload`: modelled dense, nothing folded
        in yet, and ``entries`` short of the densify point — decided from
        the count, before any support is built."""
        acc = self._acc
        return (self.policy is None and acc is not None and not acc._pending
                and not acc.policy.should_densify(entries, self.payload_size))

    def adopt_support(self, indices: np.ndarray, totals: np.ndarray) -> None:
        """Hold a fold's sorted, distinct payload positions and the totals
        over them as the whole payload (see :meth:`takes_support`).
        Positions are kept as int32 where the payload allows."""
        if self.payload_size <= _INT32_MAX:
            indices = indices.astype(np.int32, copy=False)
        self._acc.adopt(indices, totals)

    # ----------------------------------------------------------------- views
    @property
    def buf(self) -> Optional[np.ndarray]:
        """The classic dense layout ``[payload..., loss_sum, weight_sum]``
        (densified first when modelled dense); ``None`` while the
        adaptive representation is still sparse."""
        if self._buf is None and self.policy is None:
            self.to_dense()
        return self._buf

    @property
    def payload(self):
        """The model-specific accumulation target.

        A writable dense view (in-place updates intended) when modelled
        dense or once densified; the :class:`SparseAccumulator` while the
        adaptive representation is still sparse (``SparseVector.add_to``
        accepts both).
        """
        self._sync()
        if self._acc is not None:
            if self.policy is not None:
                return self._acc
            self.to_dense()
        return self._buf[:self.payload_size]

    @property
    def representation(self) -> str:
        if self.policy is None or self._buf is not None or self._acc.is_dense:
            return "dense"
        return "sparse"

    @property
    def payload_nnz(self) -> int:
        """Stored payload entries of the modelled representation (=
        payload size once dense)."""
        if self.policy is None or self._buf is not None:
            return self.payload_size
        return self._acc.nnz

    @property
    def density(self) -> float:
        total = self.payload_size + _STATS_SLOTS
        if self.policy is None or self._buf is not None or self._acc.is_dense:
            return 1.0
        return (self._acc.nnz + _STATS_SLOTS) / total if total else 1.0

    @property
    def loss_sum(self) -> float:
        if self._stats is not None:
            return float(self._stats[0])
        return float(self._buf[-2])

    @property
    def weight_sum(self) -> float:
        if self._stats is not None:
            return float(self._stats[1])
        return float(self._buf[-1])

    def add_stats(self, loss: float, weight: float = 1.0) -> None:
        if self._stats is not None:
            self._stats[0] += loss
            self._stats[1] += weight
        else:
            self._buf[-2] += loss
            self._buf[-1] += weight

    def set_stats(self, loss_sum: float, weight_sum: float) -> None:
        """Overwrite both statistics (a fold that summed them itself)."""
        stats = self._stats if self._stats is not None else self._buf[-2:]
        stats[0] = loss_sum
        stats[1] = weight_sum

    def __sim_size__(self) -> float:
        """Simulated serialized size — the cheaper wire format when the
        adaptive representation is still sparse.

        Memoized: the dense layout's size is a constant of the aggregator
        (``buf`` is always ``payload_size + 2`` long), and the sparse wire
        size is cached against the accumulator's mutation ``version`` so a
        cache hit also proves the pending ``_compact()`` would have been a
        no-op.
        """
        if self._buf is None and self.policy is not None:
            acc = self._acc
            cached = self._wire_cache
            if cached is not None and cached[0] == acc.version:
                return cached[1]
            self._compact()
            if self._buf is None:
                total = self.payload_size + _STATS_SLOTS
                size = self.policy.wire_bytes(acc.nnz + _STATS_SLOTS,
                                              total, self.size_scale)
                self._wire_cache = (acc.version, size)
                return size
        return self.__sim_dense_size__()

    def __sim_dense_size__(self) -> float:
        size = self._dense_size
        if size is None:
            size = (self.payload_size + _STATS_SLOTS) * 8.0 * self.size_scale
            self._dense_size = size
        return size

    # ------------------------------------------------------------ operations
    def merge(self, other: "FlatAggregator") -> "FlatAggregator":
        """In-place element-wise sum; returns self (MLlib merge style).

        A modelled-dense destination densifies and ``other`` is scattered
        into it from whatever it holds."""
        if other.payload_size != self.payload_size:
            raise ValueError(
                f"aggregator size mismatch: "
                f"{self.payload_size + _STATS_SLOTS} vs "
                f"{other.payload_size + _STATS_SLOTS}")
        if self.policy is None:
            self.to_dense()
        self._compact()
        other._compact()
        if self._buf is not None and other._buf is not None:
            self._buf += other._buf
            return self
        if self._buf is None and other._buf is None:
            self._acc.merge_accumulator(other._acc)
            self._stats += other._stats
            self._sync()
            return self
        if self._buf is None:  # sparse self + dense other
            self.to_dense()
            self._buf += other._buf
            return self
        # dense self + sparse other
        idx, vals = other._acc.indices_values()
        if idx.size:
            scatter_into(self._buf[:self.payload_size], idx, vals)
        self._buf[self.payload_size:] += other._stats
        return self

    def copy(self) -> "FlatAggregator":
        out = FlatAggregator.__new__(FlatAggregator)
        out.payload_size = self.payload_size
        out.size_scale = self.size_scale
        out.policy = self.policy
        out._buf = None if self._buf is None else self._buf.copy()
        out._acc = None if self._acc is None else self._acc.copy()
        out._stats = None if self._stats is None else self._stats.copy()
        out._dense_size = self._dense_size
        out._wire_cache = self._wire_cache
        return out

    def split(self, index: int, num_segments: int) -> AggregatorSegment:
        """``splitOp``: contiguous segment ``index`` of ``num_segments``.

        Dense aggregators (every modelled-dense one) hand out buffer views
        (unowned); sparse ones slice their coalesced entries, with the
        statistics slots carried as entries at their flat positions.
        """
        if self._buf is None:
            if self.policy is None:
                self.to_dense()
            else:
                self._compact()
        total = self.payload_size + _STATS_SLOTS
        lo, hi = segment_range(total, num_segments, index)
        frac = (hi - lo) / total if total else 0.0
        dense_bytes = self.__sim_dense_size__() * frac
        if self._buf is not None:
            return AggregatorSegment(self._buf[lo:hi], dense_bytes,
                                     policy=self.policy)
        idx, vals = self._acc.indices_values()
        seg_idx, seg_vals = slice_sparse(idx, vals, lo,
                                         min(hi, self.payload_size))
        stats_lo = max(lo, self.payload_size)
        if stats_lo < hi:
            offs = np.arange(stats_lo - self.payload_size,
                             hi - self.payload_size)
            seg_idx = np.concatenate(
                [seg_idx, offs + (self.payload_size - lo)])
            seg_vals = np.concatenate([seg_vals, self._stats[offs]])
        return AggregatorSegment.sparse(hi - lo, seg_idx, seg_vals,
                                        dense_bytes, policy=self.policy)

    def topk(self, k: int, residual: Optional[np.ndarray] = None
             ) -> Tuple["FlatAggregator", np.ndarray, np.ndarray]:
        """Top-k sparsification of the payload (the approximate tier).

        Switches to the dense layout in place, adds ``residual`` (the
        error-feedback carry) to the payload and keeps its ``k``
        largest-magnitude entries. Returns ``(compressed, sent,
        remainder)``: a sparse aggregator holding the kept entries and both
        statistics exact, the kept values, and the unsent remainder over
        the whole payload.
        """
        self.to_dense()
        payload = self._buf[:self.payload_size]
        if residual is not None:
            corrected = payload + residual
        else:
            corrected = payload.copy()
        idx, sent, remainder = topk_sparsify(corrected, k)
        out = FlatAggregator(self.payload_size, self.size_scale,
                             policy=self.policy or DEFAULT_SPARSE_POLICY)
        out.payload.scatter_add(idx, sent)
        out.add_stats(self.loss_sum, self.weight_sum)
        return out, sent, remainder

    def __repr__(self) -> str:
        return (f"<FlatAggregator payload={self.payload_size} "
                f"{self.representation} "
                f"loss={self.loss_sum:.4g} weight={self.weight_sum:g}>")


# Module-level SAI callbacks (Figure 6 signatures) for FlatAggregator.
def split_op(agg: FlatAggregator, index: int,
             num_segments: int) -> AggregatorSegment:
    """``splitOp(U, i, n) -> V`` for :class:`FlatAggregator`."""
    return agg.split(index, num_segments)


def reduce_op(a: AggregatorSegment, b: AggregatorSegment) -> AggregatorSegment:
    """``reduceOp(V, V) -> V``: element-wise segment sum."""
    return a.merge(b)


def concat_op(segments: Sequence[AggregatorSegment]) -> FlatAggregator:
    """``concatOp(Seq[V]) -> V`` (reassembled as a full dense aggregator)."""
    if not segments:
        raise ValueError("cannot concatenate zero segments")
    physical = sum(len(s) for s in segments) * 8.0
    # sim_bytes is each segment's dense-equivalent size, so the recovered
    # scale is wire-format independent.
    simulated = sum(s.sim_bytes for s in segments)
    scale = simulated / physical if physical > 0 else 1.0
    buf = np.concatenate([s.to_array() for s in segments])
    return FlatAggregator(buf.size - _STATS_SLOTS, max(scale, 1e-12), buf)
