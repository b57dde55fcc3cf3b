"""Executor placement and the :class:`Cluster` facade.

:class:`Cluster` instantiates the nodes of a :class:`ClusterConfig`, a
separate driver host, and the :class:`Network`, and computes the executor
placement map.

Executors are placed **round-robin across nodes** (executor ``i`` lands on
node ``i mod num_nodes``), which mirrors how executors register with a real
Spark driver in arrival order — interleaved across hosts. This is exactly
why the paper's topology-awareness experiment (Figure 14) matters: ordering
the ring by executor id puts every hop on a physical link, while ordering by
hostname makes ``executors_per_node - 1`` of every ``executors_per_node``
hops a cheap intra-node hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..sim import Environment
from .config import ClusterConfig
from .network import Network
from .node import Node

__all__ = ["ExecutorSlot", "Cluster", "host_blocks"]


@dataclass(frozen=True)
class ExecutorSlot:
    """Where one executor lives: its id, its node, and its core count."""

    executor_id: int
    node: Node
    cores: int

    @property
    def hostname(self) -> str:
        return self.node.hostname

    def __repr__(self) -> str:
        return f"<ExecutorSlot {self.executor_id} on {self.hostname}>"


def host_blocks(slots: Sequence[ExecutorSlot]
                ) -> List[Tuple[str, List[int]]]:
    """Group a ranked slot list into contiguous same-host rank runs.

    Returns ``[(hostname, [rank, ...]), ...]`` in rank order — the
    host-topology view the hierarchical collective and the cost model
    consume (rank 0 of each block is that host's *leader*). Hostname-
    sorted rankings always satisfy contiguity; an id-sorted ranking that
    interleaves hosts raises ``ValueError``, because a host-level
    reduction over non-contiguous ranks cannot preserve the canonical
    rank-order reduction chain.
    """
    blocks: List[Tuple[str, List[int]]] = []
    seen = set()
    for rank, slot in enumerate(slots):
        host = slot.hostname
        if blocks and blocks[-1][0] == host:
            blocks[-1][1].append(rank)
            continue
        if host in seen:
            raise ValueError(
                f"host {host!r} appears in non-contiguous rank runs; "
                f"host-level grouping requires a hostname-sorted ranking")
        seen.add(host)
        blocks.append((host, [rank]))
    return blocks


class Cluster:
    """A fully instantiated simulated cluster.

    Parameters
    ----------
    env:
        Simulation environment all activity runs in.
    config:
        Platform description (see :class:`ClusterConfig`).

    The driver gets a host of its own with the nodes' network
    characteristics.
    """

    def __init__(self, env: Environment, config: ClusterConfig):
        config.validate()
        self.env = env
        self.config = config
        self.network = Network(env, config)
        self.nodes: List[Node] = [
            Node.from_config(env, node_id=i, config=config)
            for i in range(config.num_nodes)
        ]
        self.driver_node = Node(
            env, node_id=-1, hostname="driver-host",
            nic_bandwidth=config.nic_bandwidth,
            loopback_bandwidth=config.loopback_bandwidth,
            memory=config.memory_per_node,
        )
        self.executors: List[ExecutorSlot] = self._place_executors()

    def _place_executors(self) -> List[ExecutorSlot]:
        slots = []
        for i in range(self.config.num_executors):
            node = self.nodes[i % self.config.num_nodes]
            slots.append(ExecutorSlot(executor_id=i, node=node,
                                      cores=self.config.executor_cores))
        return slots

    # ------------------------------------------------------------------ views
    @property
    def num_executors(self) -> int:
        return len(self.executors)

    @property
    def total_cores(self) -> int:
        return sum(slot.cores for slot in self.executors)

    def __repr__(self) -> str:
        return (f"<Cluster {self.config.name!r} nodes={len(self.nodes)} "
                f"executors={self.num_executors}>")
