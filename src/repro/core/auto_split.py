"""Automatic split-op derivation (the paper's §6 future-work direction).

The paper notes that split aggregation demands extra user code (splitOp /
reduceOp / concatOp) and suggests that "compiler techniques may be used to
analyze the aggregator to generate split aggregation code without
user-defined code. We plan to explore this approach in the future."

This module implements that idea for the aggregator shapes MLlib-style
code actually uses: objects whose state is a collection of NumPy arrays
plus additive scalars (Figure 7's ``Agg`` with ``sum1``/``sum2`` is the
canonical example). :func:`derive_split_ops` inspects one *prototype*
aggregator instance, builds a field plan, and returns ready-to-use
``(split_op, reduce_op, concat_op, merge_op)`` callbacks:

* every 1-D float array field is split into contiguous blocks,
* every numeric scalar field is treated as additive and carried by
  segment 0,
* nested NumPy arrays of higher rank are flattened views (split on the
  flat index space, reshaped on concat),
* anything else is rejected with a clear error — exactly the situation
  where the paper's explicit interface remains necessary.

The derived callbacks satisfy the SAI algebra (splitting, segment-wise
merging, then concatenation equals whole-object merging) whenever the
object's merge really is element-wise addition, which
:func:`derive_split_ops` verifies on the prototype when ``verify=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..serde import SparsePolicy, segment_range, sim_sizeof
from .spec import AggregationSpec

__all__ = ["derive_split_ops", "AutoSegment", "UnsplittableError",
           "DerivedOps"]


class UnsplittableError(TypeError):
    """The aggregator's state cannot be auto-split.

    Raised when a field is neither a NumPy float array nor an additive
    numeric scalar — the cases where the user must write Figure 6's
    explicit callbacks.
    """


@dataclass
class _FieldPlan:
    name: str
    kind: str  # "array" | "scalar"
    shape: Tuple[int, ...] = ()
    dtype: Any = None
    #: flat offset of this field in the concatenated value space
    offset: int = 0
    length: int = 0


class AutoSegment:
    """A derived segment: a flat slice of the aggregator's value space.

    The slice itself is one hand-written
    :class:`~repro.ml.aggregators.AggregatorSegment` (``seg``) — its dense
    or sparse storage, its merge kernels, its wire-size switch and its
    chunk columns are the segment's — plus what only a derived aggregator
    has: the additive ``scalars`` (carried by segment 0, and by chunk
    column 0 of it) and the segment's ``index`` for reassembly.
    """

    __slots__ = ("seg", "scalars", "index")

    def __init__(self, seg: Any, scalars: Dict[str, float], index: int):
        self.seg = seg
        self.scalars = scalars
        self.index = index

    is_sparse = property(lambda self: self.seg.is_sparse)
    representation = property(lambda self: self.seg.representation)
    nnz = property(lambda self: self.seg.nnz)
    density = property(lambda self: self.seg.density)
    length = property(lambda self: self.seg.length)
    sim_bytes = property(lambda self: self.seg.sim_bytes)

    def __sim_size__(self) -> float:
        return self.seg.__sim_size__()

    def __sim_dense_size__(self) -> float:
        return self.seg.sim_bytes

    def to_array(self) -> np.ndarray:
        """The segment's dense block (the stored slice when dense)."""
        return self.seg.to_array()

    def __len__(self) -> int:
        return self.seg.length

    # ------------------------------------------------------------- operations
    def merge(self, other: "AutoSegment") -> "AutoSegment":
        scalars = {k: v + other.scalars[k] for k, v in self.scalars.items()}
        merged = self.seg.merge(other.seg)
        if merged is self.seg:  # merged in place into an owned buffer
            self.scalars = scalars
            return self
        return AutoSegment(merged, scalars, self.index)

    def chunk_split(self, index: int, num_chunks: int) -> "AutoSegment":
        """Chunk column ``index`` of ``num_chunks`` (pipelined_ring)."""
        zeros = dict.fromkeys(self.scalars, 0.0)
        return AutoSegment(self.seg.chunk_split(index, num_chunks),
                           self.scalars if index == 0 else zeros, self.index)

    @staticmethod
    def chunk_concat(parts: Sequence["AutoSegment"]) -> "AutoSegment":
        """Reassemble chunk columns into one segment (pipelined_ring)."""
        head = parts[0]
        return AutoSegment(
            head.seg.chunk_concat([part.seg for part in parts]),
            {k: sum(part.scalars[k] for part in parts) for k in head.scalars},
            head.index)

    def __repr__(self) -> str:
        return (f"<AutoSegment idx={self.index} n={self.length} "
                f"{self.representation}>")


@dataclass
class DerivedOps:
    """The generated SAI callbacks (Figure 6 signatures)."""

    split_op: Callable[[Any, int, int], AutoSegment]
    reduce_op: Callable[[AutoSegment, AutoSegment], AutoSegment]
    concat_op: Callable[[Sequence[AutoSegment]], Any]
    merge_op: Callable[[Any, Any], Any]
    #: the inspected field plan, for introspection/tests
    fields: List[_FieldPlan]

    def as_tuple(self) -> Tuple[Callable, Callable, Callable, Callable]:
        return (self.split_op, self.reduce_op, self.concat_op,
                self.merge_op)


def _state_of(obj: Any) -> Dict[str, Any]:
    state = getattr(obj, "__dict__", None)
    if state:
        return dict(state)
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        return {name: getattr(obj, name) for name in slots
                if hasattr(obj, name)}
    raise UnsplittableError(
        f"{type(obj).__name__} exposes no __dict__ or __slots__ state")


def _plan(prototype: Any) -> List[_FieldPlan]:
    plans: List[_FieldPlan] = []
    offset = 0
    for name, value in sorted(_state_of(prototype).items()):
        if isinstance(value, np.ndarray):
            if not np.issubdtype(value.dtype, np.floating):
                raise UnsplittableError(
                    f"field {name!r}: only float arrays are additive "
                    f"(got dtype {value.dtype})")
            plans.append(_FieldPlan(name, "array", tuple(value.shape),
                                    value.dtype, offset, value.size))
            offset += value.size
        elif isinstance(value, (int, float, np.integer, np.floating)) \
                and not isinstance(value, bool):
            plans.append(_FieldPlan(name, "scalar"))
        else:
            raise UnsplittableError(
                f"field {name!r} of type {type(value).__name__} is not "
                f"auto-splittable; provide explicit splitOp/concatOp")
    if offset == 0:
        raise UnsplittableError(
            f"{type(prototype).__name__} holds no array state to split")
    return plans


def derive_split_ops(prototype: Any, verify: bool = True,
                     policy: Optional[SparsePolicy] = None,
                     spec: Optional[AggregationSpec] = None) -> DerivedOps:
    """Inspect ``prototype`` and generate SAI callbacks for its type.

    ``concat_op`` reconstructs an instance of the prototype's class via
    ``object.__new__`` + state assignment, so the returned value has the
    aggregator's full interface. With ``verify=True`` the derived algebra
    is checked on the prototype itself (split -> merge -> concat equals
    whole-object state doubling). With a ``policy`` the generated
    ``split_op`` emits density-adaptive segments: blocks below the policy
    threshold travel in the sparse (index, value) wire format and every
    merge re-evaluates the representation. Passing ``spec`` instead takes
    the job's policy object, :attr:`AggregationSpec.sparse_policy`, so
    derived ops and the seqOp accumulator can never disagree.
    """
    # ml builds on core (its trainers call core's aggregations), so core
    # reaches the hand-written segment only from inside a call
    from ..ml.aggregators import AggregatorSegment

    if policy is None and spec is not None:
        policy = spec.sparse_policy
    plans = _plan(prototype)
    cls = type(prototype)
    array_fields = [p for p in plans if p.kind == "array"]
    scalar_fields = [p for p in plans if p.kind == "scalar"]
    total_len = sum(p.length for p in array_fields)

    def flatten(agg: Any) -> np.ndarray:
        state = _state_of(agg)
        return np.concatenate(
            [np.asarray(state[p.name], dtype=np.float64).reshape(-1)
             for p in array_fields])

    def split_op(agg: Any, index: int, num_segments: int) -> AutoSegment:
        flat = flatten(agg)
        lo, hi = segment_range(total_len, num_segments, index)
        state = _state_of(agg)
        scalars = {p.name: float(state[p.name]) if index == 0 else 0.0
                   for p in scalar_fields}
        frac = (hi - lo) / total_len if total_len else 0.0
        dense_bytes = sim_sizeof(agg) * frac
        block = flat[lo:hi]
        idx = None if policy is None else np.flatnonzero(block)
        if idx is not None and not policy.should_densify(idx.size,
                                                         block.size):
            seg = AggregatorSegment.sparse(block.size, idx, block[idx],
                                           dense_bytes, policy=policy)
        else:
            seg = AggregatorSegment(block, dense_bytes, policy=policy)
        return AutoSegment(seg, scalars, index)

    def concat_op(segments: Sequence[AutoSegment]) -> Any:
        if not segments:
            raise ValueError("cannot concatenate zero segments")
        ordered = sorted(segments, key=lambda s: s.index)
        flat = np.concatenate([s.to_array() for s in ordered])
        if flat.size != total_len:
            raise ValueError(
                f"segments reassemble to {flat.size} values, expected "
                f"{total_len}")
        out = object.__new__(cls)
        state: Dict[str, Any] = {}
        for p in array_fields:
            block = flat[p.offset:p.offset + p.length]
            state[p.name] = block.reshape(p.shape).astype(p.dtype,
                                                          copy=False)
        for p in scalar_fields:
            state[p.name] = sum(s.scalars[p.name] for s in ordered)
        for name, value in state.items():
            setattr(out, name, value)
        return out

    def merge_op(a: Any, b: Any) -> Any:
        state_a, state_b = _state_of(a), _state_of(b)
        for p in array_fields:
            arr = np.asarray(state_a[p.name])
            arr = arr + np.asarray(state_b[p.name])
            setattr(a, p.name, arr)
        for p in scalar_fields:
            setattr(a, p.name, state_a[p.name] + state_b[p.name])
        return a

    ops = DerivedOps(split_op, AutoSegment.merge, concat_op, merge_op, plans)
    if verify:
        _verify(prototype, ops, total_len)
    return ops


def _verify(prototype: Any, ops: DerivedOps, total_len: int) -> None:
    """Check the SAI algebra on the prototype: segment-wise double ==
    whole-object double."""
    n = min(3, max(1, total_len))
    segments = [ops.split_op(prototype, i, n) for i in range(n)]
    doubled = [ops.reduce_op(s, ops.split_op(prototype, s.index, n))
               for s in segments]
    rebuilt = ops.concat_op(doubled)
    state_orig = _state_of(prototype)
    state_new = _state_of(rebuilt)
    for plan in ops.fields:
        if plan.kind == "array":
            expected = 2.0 * np.asarray(state_orig[plan.name],
                                        dtype=np.float64)
            got = np.asarray(state_new[plan.name], dtype=np.float64)
            if not np.allclose(got, expected):
                raise UnsplittableError(
                    f"derived ops fail the merge algebra on field "
                    f"{plan.name!r}: its merge is not element-wise "
                    f"addition")
        else:
            if not np.isclose(float(state_new[plan.name]),
                              2.0 * float(state_orig[plan.name])):
                raise UnsplittableError(
                    f"derived ops fail on scalar field {plan.name!r}")
