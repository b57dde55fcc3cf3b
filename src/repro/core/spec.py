"""The unified aggregation configuration: :class:`AggregationSpec`.

Every reduction knob of ``splitAggregate``, the trainers and the
workload harness is a field of one frozen value, passed as ``spec=``:

* :class:`AggregationSpec` — every reduction knob in one immutable
  dataclass with a :meth:`~AggregationSpec.replace` builder and dict
  round-trip serialization (:meth:`~AggregationSpec.to_dict` /
  :meth:`~AggregationSpec.from_dict`),
* ``collective`` — which reduce-scatter algorithm the split aggregation
  runs (``"ring"`` | ``"hd"`` | ``"hierarchical"`` | ``"pipelined_ring"``,
  see :mod:`repro.comm.collectives`) or ``"auto"`` to let the cost-model
  tuner (:mod:`repro.comm.cost`) pick algorithm + parallelism per call,
* **env-var resolution in one place** — every ``SPARKER_*`` override the
  engine honours is read here (:meth:`AggregationSpec.from_env`,
  :func:`resolve_host_pool`) and nowhere else,
* :func:`resolve_sparse_policy` — the single site that may fall back to
  :data:`~repro.serde.DEFAULT_SPARSE_POLICY`, so the policy used by the
  seqOp accumulator, ``derive_split_ops`` and the wire-format switch is
  one object per job,
* :meth:`AggregationSpec.of` — the one check every entry point runs on
  ``spec`` (``None`` is the default spec, a non-spec a ``TypeError``).

The defaults are **seed-identical**: ``collective="ring"``,
``parallelism=4``, topology-aware, dense, no recovery — a spec-free call
produces bit-for-bit the same reduction as the pre-spec engine. The
tuner (``collective="auto"``) is opt-in because a tuned parallelism
changes the segment grid and therefore the floating-point association.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace as _dataclass_replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..comm.ring import DEFAULT_CHUNK_BYTES
from ..serde.cost import DEFAULT_SPARSE_POLICY, SparsePolicy

__all__ = [
    "COLLECTIVES",
    "COMPRESSIONS",
    "DEFAULT_CHUNK_BYTES",
    "AggregationSpec",
    "resolve_sparse_policy",
    "resolve_host_pool",
]

#: valid values of :attr:`AggregationSpec.collective`
COLLECTIVES: Tuple[str, ...] = ("auto", "ring", "hd", "hierarchical",
                                "pipelined_ring")

#: valid values of :attr:`AggregationSpec.compression`
COMPRESSIONS: Tuple[str, ...] = ("none", "topk")

#: every environment variable the engine honours, resolved here only
ENV_COLLECTIVE = "SPARKER_COLLECTIVE"
ENV_PARALLELISM = "SPARKER_PARALLELISM"
ENV_TOPOLOGY_AWARE = "SPARKER_TOPOLOGY_AWARE"
ENV_SPARSE_AGG = "SPARKER_SPARSE_AGG"
ENV_HOST_POOL = "SPARKER_HOST_POOL"
ENV_HOST_POOL_MODE = "SPARKER_HOST_POOL_MODE"
ENV_CHUNK_BYTES = "SPARKER_CHUNK_BYTES"
# deliberately no env var for ``compression``: the approximate tier changes
# results and must be requested explicitly in code, never ambiently.

_FALSY = ("", "0", "false", "no", "off")


def _env_bool(raw: str) -> bool:
    return raw.strip().lower() not in _FALSY


def resolve_sparse_policy(sparse_aggregation: bool,
                          sparse_policy: Optional[SparsePolicy]
                          ) -> Optional[SparsePolicy]:
    """The one place the sparse-policy default may be read.

    Returns the policy object the whole job must share: ``None`` when the
    density-adaptive path is off, the explicit policy when given, and
    :data:`~repro.serde.DEFAULT_SPARSE_POLICY` otherwise. Passing a
    policy implies enabling the mode.
    """
    if sparse_policy is not None:
        return sparse_policy
    if sparse_aggregation:
        return DEFAULT_SPARSE_POLICY
    return None


def resolve_host_pool(value: Any) -> Any:
    """Normalize a host-pool request to a ``HostPool`` or ``None``.

    ``None`` reads the ``SPARKER_HOST_POOL`` / ``SPARKER_HOST_POOL_MODE``
    environment overrides (worker count; unset or <= 1 disables); an int
    is a worker count; anything else is assumed to already be a
    :class:`~repro.rdd.hostpool.HostPool` and passed through.
    """
    from ..rdd.hostpool import HostPool
    if value is None:
        env_size = int(os.environ.get(ENV_HOST_POOL, "0") or "0")
        env_mode = os.environ.get(ENV_HOST_POOL_MODE, "fork")
        # mode "inline" forces a (serial) pool even without a size, so the
        # pool code path itself can be exercised deterministically
        if env_size > 1 or env_mode == "inline":
            return HostPool(env_size, mode=env_mode)
        return None
    if isinstance(value, int):
        return HostPool(value) if value > 1 else None
    return value


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
    sparse_aggregation / sparse_policy:
        The density-adaptive wire format (PR 2); a non-None policy
        implies enabling the mode. :meth:`resolved_sparse_policy` is the
        job-wide policy object.
    recovery:
        Optional :class:`~repro.faults.RecoveryPolicy` arming the
        fault-tolerant reduce path.
    host_pool:
        Host-side compute pool (int worker count or a ``HostPool``).
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
        enabled implicitly — there is deliberately no env override.
    """

    collective: str = "ring"
    parallelism: int = 4
    parallelism_candidates: Tuple[int, ...] = (1, 2, 4, 8)
    topology_aware: bool = True
    sparse_aggregation: bool = False
    sparse_policy: Optional[SparsePolicy] = None
    recovery: Optional[Any] = None
    host_pool: Optional[Any] = None
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
        if self.sparse_policy is not None and not self.sparse_aggregation:
            # an explicit policy implies the mode, as the trainers did
            object.__setattr__(self, "sparse_aggregation", True)
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

    @classmethod
    def from_env(cls, base: Optional["AggregationSpec"] = None,
                 environ: Optional[Mapping[str, str]] = None
                 ) -> "AggregationSpec":
        """Apply the ``SPARKER_*`` environment overrides onto ``base``.

        This is the engine's single reader of aggregation-related
        environment variables; unset variables leave the base untouched.
        """
        spec = base if base is not None else cls()
        env = os.environ if environ is None else environ
        changes: Dict[str, Any] = {}
        raw = env.get(ENV_COLLECTIVE)
        if raw:
            changes["collective"] = raw.strip().lower()
        raw = env.get(ENV_PARALLELISM)
        if raw:
            changes["parallelism"] = int(raw)
        raw = env.get(ENV_TOPOLOGY_AWARE)
        if raw is not None:
            changes["topology_aware"] = _env_bool(raw)
        raw = env.get(ENV_SPARSE_AGG)
        if raw is not None:
            changes["sparse_aggregation"] = _env_bool(raw)
        raw = env.get(ENV_HOST_POOL)
        if raw:
            changes["host_pool"] = int(raw)
        raw = env.get(ENV_CHUNK_BYTES)
        if raw:
            changes["chunk_bytes"] = float(raw)
        return spec.replace(**changes) if changes else spec

    # ------------------------------------------------------------ resolution
    @property
    def resolved_sparse_policy(self) -> Optional[SparsePolicy]:
        """The job-wide sparse policy (see :func:`resolve_sparse_policy`)."""
        return resolve_sparse_policy(self.sparse_aggregation,
                                     self.sparse_policy)

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; :meth:`from_dict` round-trips it exactly.

        ``host_pool`` serializes as its worker count (pool objects do not
        round-trip); ``recovery`` and ``sparse_policy`` serialize field
        by field.
        """
        record: Dict[str, Any] = {
            "collective": self.collective,
            "parallelism": self.parallelism,
            "parallelism_candidates": list(self.parallelism_candidates),
            "topology_aware": self.topology_aware,
            "sparse_aggregation": self.sparse_aggregation,
            "sparse_policy": (dict(self.sparse_policy.__dict__)
                              if self.sparse_policy is not None else None),
            "recovery": (dict(self.recovery.__dict__)
                         if self.recovery is not None else None),
            "host_pool": None,
            "chunk_bytes": self.chunk_bytes,
            "compression": self.compression,
            "topk_ratio": self.topk_ratio,
            "topk_k": self.topk_k,
            "error_feedback": self.error_feedback,
        }
        if self.host_pool is not None:
            size = getattr(self.host_pool, "size", self.host_pool)
            record["host_pool"] = int(size)
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "AggregationSpec":
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in record.items() if k in known}
        policy = kwargs.get("sparse_policy")
        if isinstance(policy, Mapping):
            kwargs["sparse_policy"] = SparsePolicy(**policy)
        recovery = kwargs.get("recovery")
        if isinstance(recovery, Mapping):
            from ..faults.plan import RecoveryPolicy
            kwargs["recovery"] = RecoveryPolicy(**recovery)
        candidates = kwargs.get("parallelism_candidates")
        if candidates is not None:
            kwargs["parallelism_candidates"] = tuple(candidates)
        return cls(**kwargs)
