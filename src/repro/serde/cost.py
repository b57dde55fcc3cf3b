"""Serialization / deserialization cost model.

Spark serializes a value whenever it leaves a JVM: task results on their way
to the driver, shuffle blocks, broadcast variables. Ousterhout et al. (NSDI
'15, cited by the paper in §3.2) showed this can dominate; the paper's
in-memory merge exists precisely to amortize it. The model here is linear
with a fixed setup cost:

    ser_time(B)   = ser_fixed + B / ser_bandwidth
    deser_time(B) = ser_fixed + B / deser_bandwidth

Both appear as virtual-time charges wherever the engine would really
serialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.config import ClusterConfig

__all__ = ["SerdeModel", "SparsePolicy", "DEFAULT_SPARSE_POLICY"]

#: simulated bytes of one sparse entry's index, of its value, and of one
#: dense slot: the JVM's 8-byte longs and doubles
INDEX_BYTES = 8.0
VALUE_BYTES = 8.0
DENSE_VALUE_BYTES = 8.0


@dataclass(frozen=True)
class SparsePolicy:
    """Density policy for the adaptive sparse aggregation path.

    Encodes the SparCML-style wire-format switch: a sparse operand costs
    ``nnz * (INDEX_BYTES + VALUE_BYTES)`` on the wire, a dense one
    ``length * DENSE_VALUE_BYTES``, so sparse wins while density stays
    below ``DENSE_VALUE_BYTES / (INDEX_BYTES + VALUE_BYTES)`` = 0.5.
    ``density_threshold`` separately controls when an accumulator
    *stores* itself densely (memory/kernel choice); it defaults to the
    wire break-even point so storage and wire format flip together.
    """

    density_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.density_threshold <= 1.0:
            raise ValueError(
                f"density_threshold must be in (0, 1]: "
                f"{self.density_threshold}")

    # ------------------------------------------------------------ wire sizes
    def sparse_wire_bytes(self, nnz: int, scale: float = 1.0) -> float:
        """Simulated bytes of ``nnz`` (index, value) pairs on the wire."""
        return float(nnz) * (INDEX_BYTES + VALUE_BYTES) * scale

    def dense_wire_bytes(self, length: int, scale: float = 1.0) -> float:
        """Simulated bytes of a dense ``length``-vector on the wire."""
        return float(length) * DENSE_VALUE_BYTES * scale

    def wire_bytes(self, nnz: int, length: int, scale: float = 1.0) -> float:
        """Bytes of the cheaper wire format (the per-send switch)."""
        return min(self.sparse_wire_bytes(nnz, scale),
                   self.dense_wire_bytes(length, scale))

    # --------------------------------------------------------------- switches
    def should_densify(self, nnz: int, length: int) -> bool:
        """True when an accumulator at this density should store densely."""
        return length > 0 and nnz >= self.density_threshold * length


#: the SparCML break-even policy: what ``AggregationSpec(sparse=True)``
#: turns on
DEFAULT_SPARSE_POLICY = SparsePolicy()


class SerdeModel:
    """Linear serialization cost model bound to a platform's constants."""

    def __init__(self, ser_bandwidth: float, deser_bandwidth: float,
                 fixed: float = 0.0):
        if ser_bandwidth <= 0 or deser_bandwidth <= 0:
            raise ValueError("serde bandwidths must be positive")
        if fixed < 0:
            raise ValueError(f"negative fixed cost: {fixed}")
        self.ser_bandwidth = float(ser_bandwidth)
        self.deser_bandwidth = float(deser_bandwidth)
        self.fixed = float(fixed)

    @classmethod
    def from_config(cls, config: "ClusterConfig") -> "SerdeModel":
        """A model with the platform's serialization constants."""
        return cls(config.ser_bandwidth, config.deser_bandwidth,
                   config.ser_fixed)

    # -------------------------------------------------------------- by bytes
    def ser_time_bytes(self, nbytes: float) -> float:
        """Time to serialize ``nbytes`` of payload."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        return self.fixed + nbytes / self.ser_bandwidth

    def deser_time_bytes(self, nbytes: float) -> float:
        """Time to deserialize ``nbytes`` of payload."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        return self.fixed + nbytes / self.deser_bandwidth

    def __repr__(self) -> str:
        return (f"<SerdeModel ser={self.ser_bandwidth:.3g}B/s "
                f"deser={self.deser_bandwidth:.3g}B/s fixed={self.fixed:g}s>")
