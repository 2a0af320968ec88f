"""Ready-made cluster configurations.

``accelerator_cluster`` reproduces the paper's testbed: NCSA's Accelerator
Cluster (AC), where each node has a quad-core CPU, 8 GB of DRAM, one
Tesla S1070 unit (four logical C1060 GPUs), and a QDR InfiniBand port.
"""

from __future__ import annotations

import math

from .cpu import CPUSpec
from .disk import DiskSpec
from .gpu import GPUSpec
from .network import NetworkSpec
from .node import ClusterSpec, NodeSpec
from .pcie import PCIeSpec

__all__ = ["accelerator_cluster"]


def accelerator_cluster(n_gpus: int, gpus_per_node: int = 4) -> ClusterSpec:
    """The paper's AC testbed scaled to ``n_gpus`` total GPUs.

    GPUs fill nodes in groups of ``gpus_per_node`` (4 on the AC); a run
    with 2 GPUs therefore uses one node and never touches the network,
    exactly as on the real machine.
    """
    if n_gpus < 1:
        raise ValueError("need at least one GPU")
    if gpus_per_node < 1:
        raise ValueError("need at least one GPU per node")
    n_nodes = math.ceil(n_gpus / gpus_per_node)
    nodes = []
    remaining = n_gpus
    for _ in range(n_nodes):
        k = min(gpus_per_node, remaining)
        remaining -= k
        nodes.append(
            NodeSpec(
                cpu=CPUSpec(cores=4),
                disk=DiskSpec(),
                pcie=PCIeSpec(),
                gpus=tuple(GPUSpec() for _ in range(k)),
            )
        )
    return ClusterSpec(nodes=tuple(nodes), network=NetworkSpec())
