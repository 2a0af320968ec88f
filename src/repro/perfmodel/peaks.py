"""Speed-of-light analysis (paper §6.3).

"We do this by showing the 'speed-of-light' and the realistic peak
speeds for the tasks in the renderer, then showing that we come very
close to achieving those."  Disk time is excluded, as in the paper
("assume that all data is initially resident within CPU system memory").

Each peak is the unavoidable serial time of one stage given perfect
overlap of everything else — lower bounds the achieved stage time from
the simulator can be compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.executors import MapWork
from ..sim.node import ClusterSpec

__all__ = ["StagePeaks", "speed_of_light"]


@dataclass(frozen=True)
class StagePeaks:
    """Lower-bound seconds per stage."""

    upload: float  # H2D brick payloads through the PCIe links
    map_compute: float  # ray-cast kernels on the GPUs
    download: float  # D2H emitted pairs
    network: float  # direct-send exchange over NIC ports
    sort: float  # counting sort of received pairs
    reduce: float  # compositing of received pairs

    @property
    def map_phase(self) -> float:
        """Lower bound of the overlapped map phase: its slowest component."""
        return max(self.upload, self.map_compute, self.download, self.network)

    @property
    def total(self) -> float:
        return self.map_phase + self.sort + self.reduce

    def as_dict(self) -> dict[str, float]:
        return {
            "upload": self.upload,
            "map_compute": self.map_compute,
            "download": self.download,
            "network": self.network,
            "sort": self.sort,
            "reduce": self.reduce,
            "map_phase": self.map_phase,
            "total": self.total,
        }


def speed_of_light(
    cluster: ClusterSpec,
    works: list[MapWork],
    pair_nbytes: int,
    reduce_on: str = "cpu",
) -> StagePeaks:
    """Per-stage lower bounds for a workload on a cluster.

    Critical-path logic: per-GPU serial kernel/upload chains bound the
    compute stages (a GPU processes its chunks in order); per-node NIC
    serialisation bounds the exchange; per-node core counts bound the
    CPU stages.
    """
    n_gpus = cluster.gpu_count
    gpu_specs = cluster.gpu_specs()
    # Map GPU index -> node index.
    gpu_node = []
    for ni, node in enumerate(cluster.nodes):
        gpu_node.extend([ni] * node.gpu_count)

    per_gpu_kernel = np.zeros(n_gpus)
    per_gpu_upload = np.zeros(n_gpus)
    per_gpu_download = np.zeros(n_gpus)
    per_node_out = np.zeros(cluster.node_count)
    per_node_in = np.zeros(cluster.node_count)
    pairs_per_reducer = None
    for w in works:
        g = w.gpu
        spec = gpu_specs[g]
        per_gpu_kernel[g] += spec.raycast_time(w.n_rays, w.n_samples)
        node = cluster.nodes[gpu_node[g]]
        per_gpu_upload[g] += w.upload_bytes / node.pcie.h2d_bandwidth
        per_gpu_download[g] += w.pairs_emitted * pair_nbytes / node.pcie.d2h_bandwidth
        if pairs_per_reducer is None:
            pairs_per_reducer = np.zeros(len(w.pairs_to_reducer), dtype=np.int64)
        pairs_per_reducer += w.pairs_to_reducer
        for r, n_pairs in enumerate(w.pairs_to_reducer):
            dst = gpu_node[r]
            if dst != gpu_node[g]:
                nbytes = int(n_pairs) * pair_nbytes
                per_node_out[gpu_node[g]] += nbytes
                per_node_in[dst] += nbytes
    if pairs_per_reducer is None:
        pairs_per_reducer = np.zeros(n_gpus, dtype=np.int64)

    net = cluster.network
    network_peak = max(
        float(per_node_out.max(initial=0.0)), float(per_node_in.max(initial=0.0))
    ) / net.bandwidth

    # Sort / reduce: reducers on one node share its cores (CPU path) or
    # run on their own GPUs (GPU path).
    sort_peak = 0.0
    reduce_peak = 0.0
    for ni, node in enumerate(cluster.nodes):
        local_reducers = [r for r in range(len(pairs_per_reducer)) if gpu_node[r] == ni]
        pairs_here = int(sum(pairs_per_reducer[r] for r in local_reducers))
        if pairs_here == 0:
            continue
        cores = node.cpu.cores
        sort_peak = max(sort_peak, pairs_here / (node.cpu.sort_keys_per_sec * cores))
        if reduce_on == "cpu":
            reduce_peak = max(
                reduce_peak, pairs_here / (node.cpu.composite_frags_per_sec * cores)
            )
        else:
            slowest = max(
                int(pairs_per_reducer[r]) / gpu_specs[r].composite_frags_per_sec
                for r in local_reducers
            )
            reduce_peak = max(reduce_peak, slowest)

    return StagePeaks(
        upload=float(per_gpu_upload.max(initial=0.0)),
        map_compute=float(per_gpu_kernel.max(initial=0.0)),
        download=float(per_gpu_download.max(initial=0.0)),
        network=network_peak,
        sort=sort_peak,
        reduce=reduce_peak,
    )
