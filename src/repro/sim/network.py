"""Interconnect model.

The Accelerator Cluster is connected with QDR InfiniBand: 40 Gb/s signal
rate, ~32 Gb/s (4 GB/s) effective data rate per port, microsecond-scale
latency.  We model the fabric as a non-blocking crossbar with one
full-duplex port per node: transfers contend only at the sending node's
TX channel and the receiving node's RX channel, never in the core.  That
matches a fat-tree IB fabric at the paper's scale (≤8 nodes).

Intra-node "transfers" (GPU to GPU on the same node) never touch the NIC;
they cost a host memcpy instead, which the scheduler accounts separately.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkSpec"]


@dataclass(frozen=True)
class NetworkSpec:
    """Per-port bandwidth/latency of the cluster fabric.

    ``bandwidth`` is the *effective application payload* rate through the
    2010 MPI stack (host staging, eager/rendezvous protocol), not the
    32 Gb/s QDR signalling rate — measured MPI bandwidth on such systems
    was an order of magnitude below wire speed for the message sizes the
    renderer produces.
    """

    bandwidth: float = 900e6
    latency: float = 2e-6
    message_overhead: float = 50e-6  # per-message software/verbs cost
