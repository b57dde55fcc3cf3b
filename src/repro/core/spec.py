"""The unified aggregation configuration: :class:`AggregationSpec`.

Every reduction knob of ``splitAggregate``, the trainers and the
workload harness is a field of one frozen value, passed as ``spec=`` —
the arguments of the paper's ``splitAggregate`` call (Figure 6), and the
only way in: nothing under :mod:`repro` reads an environment variable.

* :class:`AggregationSpec` — every reduction knob in one immutable
  dataclass with a :meth:`~AggregationSpec.replace` builder,
* ``collective`` — which reduce-scatter algorithm the split aggregation
  runs (``"ring"`` | ``"hd"`` | ``"hierarchical"`` | ``"pipelined_ring"``,
  see :mod:`repro.comm.collectives`) or ``"auto"`` to let the cost-model
  tuner (:mod:`repro.comm.cost`) pick algorithm + parallelism per call,
* ``sparse_policy`` — the density-adaptive wire format: ``None`` is
  dense, a :class:`~repro.serde.SparsePolicy` is the one policy object
  the seqOp accumulator, the aggregator's segments and the wire-format
  switch share for the whole job,
* :meth:`AggregationSpec.of` — the one check every entry point runs on
  ``spec`` (``None`` is the default spec, a non-spec a ``TypeError``).

The defaults are **seed-identical**: ``collective="ring"``,
``parallelism=4``, topology-aware, dense, no recovery — a spec-free call
produces bit-for-bit the same reduction as the pre-spec engine. The
tuner (``collective="auto"``) is opt-in because a tuned parallelism
changes the segment grid and therefore the floating-point association.
The host-side compute pool is not a reduction knob: it belongs to the
context (``SparkerContext(host_pool=N)``, ``SparkerSession(config,
host_pool=N)``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dataclass_replace
from typing import Any, Optional, Tuple

from ..comm.ring import DEFAULT_CHUNK_BYTES
from ..serde.cost import SparsePolicy

__all__ = [
    "COLLECTIVES",
    "COMPRESSIONS",
    "DEFAULT_CHUNK_BYTES",
    "AggregationSpec",
]

#: valid values of :attr:`AggregationSpec.collective`
COLLECTIVES: Tuple[str, ...] = ("auto", "ring", "hd", "hierarchical",
                                "pipelined_ring")

#: valid values of :attr:`AggregationSpec.compression`
COMPRESSIONS: Tuple[str, ...] = ("none", "topk")


@dataclass(frozen=True)
class AggregationSpec:
    """Every reduction knob of one aggregation, as one immutable value.

    Build variants with :meth:`replace`::

        spec = AggregationSpec(collective="auto")
        faster = spec.replace(parallelism=8)

    Fields
    ------
    collective:
        Reduce-scatter algorithm of the split aggregation: ``"ring"``
        (the paper's parallel directed ring), ``"hd"`` (recursive
        halving-doubling), ``"hierarchical"`` (intra-host leader gather +
        inter-host ring), ``"pipelined_ring"`` (chunked non-blocking ring
        that overlaps seqOp compute and merge time with wire time) or
        ``"auto"`` (cost-model tuner picks algorithm and parallelism per
        call).
    parallelism:
        Ring channels per executor (the paper's P, Figure 14); fixes the
        ``N * P`` segment grid. Ignored when the tuner runs.
    parallelism_candidates:
        The P values the ``"auto"`` tuner considers.
    topology_aware:
        Rank executors by hostname (the paper's default) or by id.
        ``"hierarchical"`` requires hostname ranking.
    sparse_policy:
        The density-adaptive wire format: ``None`` keeps every payload
        dense, a :class:`~repro.serde.SparsePolicy` (``SparsePolicy()``
        is the SparCML break-even default) is the job-wide policy object.
    recovery:
        Optional :class:`~repro.faults.RecoveryPolicy` arming the
        fault-tolerant reduce path.
    chunk_bytes:
        Chunk ceiling (simulated bytes) for ``"pipelined_ring"``: each
        ring segment streams as ``ceil(segment_bytes / chunk_bytes)``
        independent chunk columns so wire and merge time overlap. Has no
        effect on other collectives or on the reduced values.
    compression / topk_ratio / topk_k / error_feedback:
        The **opt-in approximate tier**: ``compression="topk"`` sends only
        the k largest-magnitude gradient coordinates per executor
        (``topk_k`` absolute, else ``topk_ratio`` of the payload);
        ``error_feedback=True`` keeps the unsent remainder in a
        per-executor residual folded into the next iteration. Never
        enabled implicitly.
    """

    collective: str = "ring"
    parallelism: int = 4
    parallelism_candidates: Tuple[int, ...] = (1, 2, 4, 8)
    topology_aware: bool = True
    sparse_policy: Optional[SparsePolicy] = None
    recovery: Optional[Any] = None
    chunk_bytes: float = DEFAULT_CHUNK_BYTES
    compression: str = "none"
    topk_ratio: float = 0.01
    topk_k: Optional[int] = None
    error_feedback: bool = False

    def __post_init__(self) -> None:
        if self.collective not in COLLECTIVES:
            raise ValueError(
                f"collective must be one of {COLLECTIVES}, "
                f"got {self.collective!r}")
        if self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}")
        candidates = tuple(self.parallelism_candidates)
        if not candidates or any(p < 1 for p in candidates):
            raise ValueError(
                f"parallelism_candidates must be a non-empty tuple of "
                f"positive ints, got {self.parallelism_candidates!r}")
        object.__setattr__(self, "parallelism_candidates", candidates)
        if self.collective == "hierarchical" and not self.topology_aware:
            raise ValueError(
                "collective='hierarchical' groups ranks by hostname and "
                "requires topology_aware=True")
        if self.chunk_bytes <= 0:
            raise ValueError(
                f"chunk_bytes must be > 0, got {self.chunk_bytes}")
        if self.compression not in COMPRESSIONS:
            raise ValueError(
                f"compression must be one of {COMPRESSIONS}, "
                f"got {self.compression!r}")
        if not 0.0 < self.topk_ratio <= 1.0:
            raise ValueError(
                f"topk_ratio must be in (0, 1], got {self.topk_ratio}")
        if self.topk_k is not None and self.topk_k < 1:
            raise ValueError(f"topk_k must be >= 1, got {self.topk_k}")
        if self.error_feedback and self.compression == "none":
            raise ValueError(
                "error_feedback=True requires compression='topk' — the "
                "residual accumulator only exists on the approximate tier")

    # -------------------------------------------------------------- builders
    @classmethod
    def of(cls, spec: Optional["AggregationSpec"]) -> "AggregationSpec":
        """``spec`` itself, or the default spec for ``None``."""
        if spec is None:
            return cls()
        if not isinstance(spec, cls):
            raise TypeError(
                f"spec must be an AggregationSpec, got {spec!r}; a bare "
                f"parallelism is AggregationSpec(parallelism=...)")
        return spec

    def replace(self, **changes: Any) -> "AggregationSpec":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return _dataclass_replace(self, **changes)
