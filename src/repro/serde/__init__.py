"""Serialization cost modelling: size estimation, scaled payloads, costs."""

from .cost import DEFAULT_SPARSE_POLICY, SerdeModel, SparsePolicy
from .payload import SizedPayload, segment_range
from .sizeof import (
    SimSized,
    density_of,
    representation_of,
    sim_dense_sizeof,
    sim_sizeof,
)
from .sparse import (
    coalesce_chunks,
    densify_sparse,
    merge_sparse,
    scatter_into,
    slice_sparse,
    topk_indices,
    topk_sparsify,
)

__all__ = [
    "SerdeModel",
    "SparsePolicy",
    "DEFAULT_SPARSE_POLICY",
    "SizedPayload",
    "segment_range",
    "SimSized",
    "sim_sizeof",
    "sim_dense_sizeof",
    "representation_of",
    "density_of",
    "coalesce_chunks",
    "merge_sparse",
    "slice_sparse",
    "densify_sparse",
    "scatter_into",
    "topk_indices",
    "topk_sparsify",
]
