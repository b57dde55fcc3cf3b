"""Physical nodes and their NICs.

A :class:`Node` bundles the contended resources of a physical machine:

* ``nic_out`` / ``nic_in`` — :class:`~repro.cluster.flows.Link` capacity
  constraints for egress / ingress network bandwidth,
* ``loopback`` — a link for same-node transfers (memory bus).

Nodes never move data themselves; :class:`~repro.cluster.network.Network`
runs transfers as flows across their links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim import Environment
from .flows import Link

if TYPE_CHECKING:  # pragma: no cover
    from .config import ClusterConfig

__all__ = ["Node"]


class Node:
    """One physical machine of the simulated cluster."""

    def __init__(self, env: Environment, node_id: int, hostname: str,
                 nic_bandwidth: float, loopback_bandwidth: float,
                 memory: float):
        self.env = env
        self.node_id = node_id
        self.hostname = hostname
        self.memory = memory
        self.nic_out = Link(nic_bandwidth, name=f"{hostname}.nic_out")
        self.nic_in = Link(nic_bandwidth, name=f"{hostname}.nic_in")
        self.loopback = Link(loopback_bandwidth, name=f"{hostname}.loopback")

    @classmethod
    def from_config(cls, env: Environment, node_id: int,
                    config: "ClusterConfig", hostname: str = "") -> "Node":
        """Build a node with the platform constants of ``config``."""
        return cls(
            env,
            node_id=node_id,
            hostname=hostname or f"node-{node_id:03d}",
            nic_bandwidth=config.nic_bandwidth,
            loopback_bandwidth=config.loopback_bandwidth,
            memory=config.memory_per_node,
        )

    def __repr__(self) -> str:
        return f"<Node {self.node_id} {self.hostname!r}>"
