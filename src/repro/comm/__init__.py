"""Communication substrates: transports, fabric, ring PDR, MPI reference.

Implements §4.1 (communication infrastructure) and §4.2 (scalable
reduction) of the paper, plus the MPI baseline used throughout its
evaluation.
"""

from .collectives import COLLECTIVE_ALGORITHMS, CollectiveAlgorithm
from .cost import CollectiveCostModel, CollectivePlan, choose_collective
from .fabric import CommFabric
from .micro import measure_latency, measure_throughput
from .mpi import MPICH_RS_SHORT_THRESHOLD, MpiCommunicator
from .ring import (
    ScalableCommunicator,
    chunk_columns_for,
    pipelined_ring_reduce_scatter_rank,
    ring_allgather_rank,
    ring_reduce_scatter_rank,
)
from .transport import TransportSpec, bm_transport, mpi_transport, sc_transport

__all__ = [
    "CommFabric",
    "TransportSpec",
    "mpi_transport",
    "sc_transport",
    "bm_transport",
    "ScalableCommunicator",
    "ring_reduce_scatter_rank",
    "ring_allgather_rank",
    "pipelined_ring_reduce_scatter_rank",
    "chunk_columns_for",
    "CollectiveAlgorithm",
    "COLLECTIVE_ALGORITHMS",
    "CollectiveCostModel",
    "CollectivePlan",
    "choose_collective",
    "MpiCommunicator",
    "MPICH_RS_SHORT_THRESHOLD",
    "measure_latency",
    "measure_throughput",
]
