"""Compute-vs-communication analysis (paper §6.3).

The paper's headline numbers: a 1024³ volume on 8 GPUs needs ~515 ms of
communication and ~503 ms of computation; at 16 GPUs communication rises
past 1 s while computation falls to ~97 ms — computation is no longer
the bottleneck.  :func:`compute_vs_communication` produces exactly that
pair for any workload, and :func:`find_crossover` locates the GPU count
where communication overtakes computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.executors import MapWork
from ..sim.node import ClusterSpec

__all__ = ["CommComputeSplit", "compute_vs_communication", "find_crossover", "find_sweet_spot"]


@dataclass(frozen=True)
class CommComputeSplit:
    """The §6.3 decomposition for one configuration."""

    n_gpus: int
    compute_seconds: float  # critical-path kernel time
    communication_seconds: float  # PCIe + network serial time

    @property
    def compute_bound(self) -> bool:
        return self.compute_seconds >= self.communication_seconds

    @property
    def ratio(self) -> float:
        """communication / compute — >1 means communication-bound."""
        if self.compute_seconds == 0:
            return float("inf")
        return self.communication_seconds / self.compute_seconds


def compute_vs_communication(
    cluster: ClusterSpec,
    works: list[MapWork],
    pair_nbytes: int,
    send_threshold_pairs: int = 1 << 16,
) -> CommComputeSplit:
    """Split a workload's map phase into compute and communication time.

    *Compute* is the busiest GPU's serial kernel time.  *Communication*
    is everything the data pays to move on the busiest node's resources:
    texture uploads (PCIe **and** the synchronous setup the paper was
    stuck with), fragment downloads, wire time, and the per-message
    software staging that dominates direct-send at high GPU counts.
    This matches the paper's accounting, where the two components are
    reported as additive serial times (515 ms + 503 ms ≈ the Fig. 3
    total for 1024³ on 8 GPUs).
    """
    n_gpus = cluster.gpu_count
    gpu_specs = cluster.gpu_specs()
    gpu_node = []
    for ni, node in enumerate(cluster.nodes):
        gpu_node.extend([ni] * node.gpu_count)

    per_gpu_kernel = np.zeros(n_gpus)
    per_gpu_pcie = np.zeros(n_gpus)
    node_msgs = np.zeros(cluster.node_count)  # handled messages (in + out)
    node_wire = np.zeros(cluster.node_count)  # serialisation seconds at TX
    for w in works:
        g = w.gpu
        spec = gpu_specs[g]
        node = cluster.nodes[gpu_node[g]]
        per_gpu_kernel[g] += spec.raycast_time(w.n_rays, w.n_samples)
        per_gpu_pcie[g] += (
            spec.texture_setup_overhead
            + w.upload_bytes / node.pcie.h2d_bandwidth
            + w.pairs_emitted * pair_nbytes / node.pcie.d2h_bandwidth
        )
        for r, n_pairs in enumerate(w.pairs_to_reducer):
            if n_pairs == 0:
                continue
            n_msgs = -(-int(n_pairs) // send_threshold_pairs)
            src, dst = gpu_node[g], gpu_node[r]
            node_msgs[src] += n_msgs
            node_msgs[dst] += n_msgs
            if src != dst:
                node_wire[src] += (
                    n_msgs * cluster.network.message_overhead
                    + int(n_pairs) * pair_nbytes / cluster.network.bandwidth
                )

    # Message staging serialises on the node's single-threaded MPI
    # progress engine (the 2010 norm), so it is NOT divided over cores.
    software = np.zeros(cluster.node_count)
    for ni, node in enumerate(cluster.nodes):
        software[ni] = node_msgs[ni] * node.cpu.message_handling_overhead
    comm = float(per_gpu_pcie.max(initial=0.0)) + float(
        (node_wire + software).max(initial=0.0)
    )
    return CommComputeSplit(
        n_gpus=n_gpus,
        compute_seconds=float(per_gpu_kernel.max(initial=0.0)),
        communication_seconds=comm,
    )


def find_crossover(
    splits: Sequence[CommComputeSplit],
) -> int | None:
    """Smallest GPU count at which communication exceeds computation.

    ``splits`` must come from the same workload at increasing GPU counts.
    Returns None when the workload stays compute-bound throughout.
    """
    for s in sorted(splits, key=lambda s: s.n_gpus):
        if not s.compute_bound:
            return s.n_gpus
    return None


def find_sweet_spot(
    runtimes: dict[int, float],
) -> int:
    """GPU count with the minimum total runtime (paper: 8 for ≤512³)."""
    if not runtimes:
        raise ValueError("no runtimes given")
    return min(runtimes, key=lambda n: (runtimes[n], n))
