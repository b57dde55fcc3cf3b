"""The unified aggregation configuration: :class:`AggregationSpec`.

Every reduction knob of ``splitAggregate``, the trainers and the
workload harness is a field of one frozen value, passed as ``spec=`` —
the arguments of the paper's ``splitAggregate`` call (Figure 6), and the
only way in: nothing under :mod:`repro` reads an environment variable.

* :class:`AggregationSpec` — every reduction knob in one immutable
  dataclass with a :meth:`~AggregationSpec.replace` builder,
* ``collective`` — which reduce-scatter algorithm the split aggregation
  runs (``"ring"`` | ``"hd"`` | ``"hierarchical"`` | ``"pipelined_ring"``,
  see :mod:`repro.comm.collectives`),
* ``sparse`` and ``topk`` — the two opt-in tiers, one field each: the
  density-adaptive wire format, and top-k sparsification with error
  feedback,
* :meth:`AggregationSpec.of` — the one check every entry point runs on
  ``spec`` (``None`` is the default spec, a non-spec a ``TypeError``).

The defaults are **seed-identical**: ``collective="ring"``,
``parallelism=4``, topology-aware, dense, no recovery — a spec-free call
produces bit-for-bit the same reduction as the pre-spec engine. The
host-side compute pool is not a reduction knob: it belongs to the
context (``SparkerContext(host_pool=N)``, ``SparkerSession(config,
host_pool=N)``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dataclass_replace
from typing import Any, Optional

from ..comm.collectives import COLLECTIVE_ALGORITHMS
from ..comm.ring import DEFAULT_CHUNK_BYTES

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "AggregationSpec",
]


@dataclass(frozen=True)
class AggregationSpec:
    """Every reduction knob of one aggregation, as one immutable value.

    Build variants with :meth:`replace`::

        spec = AggregationSpec(collective="hd")
        faster = spec.replace(parallelism=8)

    Fields
    ------
    collective:
        Reduce-scatter algorithm of the split aggregation: ``"ring"``
        (the paper's parallel directed ring), ``"hd"`` (recursive
        halving-doubling), ``"hierarchical"`` (intra-host leader gather +
        inter-host ring), ``"pipelined_ring"`` (chunked non-blocking ring
        that overlaps seqOp compute and merge time with wire time).
    parallelism:
        Ring channels per executor (the paper's P, Figure 14); fixes the
        ``N * P`` segment grid.
    sparse:
        The density-adaptive wire format (DESIGN.md §8): ``True`` gives
        the seqOp accumulator, the aggregator's segments and the per-send
        wire-format switch SparCML's break-even policy,
        :data:`~repro.serde.DEFAULT_SPARSE_POLICY`. Bit-identical to the
        dense run; only sizes, and so virtual time, change.
    recovery:
        Optional :class:`~repro.faults.RecoveryPolicy` arming the
        fault-tolerant reduce path.
    chunk_bytes:
        Chunk ceiling (simulated bytes) for ``"pipelined_ring"``: each
        ring segment streams as ``ceil(segment_bytes / chunk_bytes)``
        independent chunk columns so wire and merge time overlap. Has no
        effect on other collectives or on the reduced values.
    topk:
        The **opt-in approximate tier** (DESIGN.md §14): the fraction of
        payload coordinates, in ``(0, 1]``, each executor sends — its
        largest-magnitude ones. The unsent remainder stays in a
        per-executor error-feedback residual that the next iteration adds
        back. ``None`` (the default) sends everything.
    """

    collective: str = "ring"
    parallelism: int = 4
    sparse: bool = False
    recovery: Optional[Any] = None
    chunk_bytes: float = DEFAULT_CHUNK_BYTES
    topk: Optional[float] = None

    def __post_init__(self) -> None:
        if self.collective not in COLLECTIVE_ALGORITHMS:
            raise ValueError(
                f"collective must be one of {tuple(COLLECTIVE_ALGORITHMS)}, "
                f"got {self.collective!r}")
        if self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}")
        if self.chunk_bytes <= 0:
            raise ValueError(
                f"chunk_bytes must be > 0, got {self.chunk_bytes}")
        if self.topk is not None and not 0.0 < self.topk <= 1.0:
            raise ValueError(f"topk must be in (0, 1], got {self.topk}")

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
