"""Point-to-point micro-benchmark helpers (paper Figures 12 and 13).

These run the same measurement loops as the paper's micro-benchmarks —
ping-pong latency and multi-channel streaming throughput between a pair of
executors on different nodes — against any transport. They return plain
numbers; the figure-level benches in ``benchmarks/`` format them.
"""

from __future__ import annotations

from ..cluster.placement import Cluster
from ..sim import Environment
from .fabric import CommFabric
from .transport import TransportSpec

__all__ = ["measure_latency", "measure_throughput"]


def _pair_fabric(cluster: Cluster, transport: TransportSpec) -> CommFabric:
    """A fabric with ranks 0/1 on two executors of *different* nodes."""
    if len(cluster.nodes) < 2:
        raise ValueError("point-to-point benchmarks need at least two nodes")
    fabric = CommFabric(cluster.network, transport)
    first = next(s for s in cluster.executors if s.node is cluster.nodes[0])
    second = next(s for s in cluster.executors if s.node is cluster.nodes[1])
    fabric.register(0, first.node)
    fabric.register(1, second.node)
    return fabric


def measure_latency(cluster: Cluster, transport: TransportSpec,
                    nbytes: float = 1.0, rounds: int = 10) -> float:
    """One-way message latency in seconds (ping-pong / 2, averaged)."""
    fabric = _pair_fabric(cluster, transport)
    env: Environment = cluster.env
    proc = env.process(fabric.ping_pong(0, 1, nbytes=nbytes, rounds=rounds))
    elapsed = env.run(until=proc)
    return elapsed / (2 * rounds)


def measure_throughput(cluster: Cluster, transport: TransportSpec,
                       nbytes: float, parallelism: int = 1,
                       rounds: int = 3) -> float:
    """Streaming throughput in bytes/second for ``nbytes`` messages.

    Each round is one message over ``parallelism`` lanes of
    ``nbytes / parallelism`` (the PDR design: multiple sockets to fill the
    NIC); ``rounds`` back-to-back messages amortize latency like the OSU
    benchmark's window.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if nbytes <= 0:
        raise ValueError(f"message size must be positive, got {nbytes}")
    fabric = _pair_fabric(cluster, transport)
    env: Environment = cluster.env
    lanes = (nbytes / parallelism,) * parallelism

    def stream():
        for r in range(rounds):
            yield from fabric.send(0, 1, b"x", tag=("tp", r), nbytes=lanes)

    began = env.now
    env.run(until=env.process(stream()))
    elapsed = env.now - began
    if elapsed <= 0:
        raise RuntimeError("throughput measurement elapsed no time")
    return nbytes * rounds / elapsed
