"""CPU-cluster baseline (the paper's ParaView comparison point).

Footnote 1: "Moreland et al. show that ParaView can render 346M VPS
using 512 processes on 256 nodes.  Using 16 GPUs on 4 nodes, we achieve
more than double this rate."

ParaView's parallel volume renderer is a sort-last software pipeline:
every process rasterises *its share of the voxels* (software sampling
touches each voxel, unlike an image-order GPU ray caster), then partial
images are composited across processes.  The model here reflects that:

* render time = voxels / (per-process voxel rate × processes), with the
  per-process rate calibrated so 512 processes reproduce the published
  346 M voxels/s on a large volume;
* composite time = the direct-send image exchange over the fabric.

This gives an honest comparator whose *scaling* (more procs → faster,
with a compositing floor) can be swept, rather than a hard-coded
constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.network import NetworkSpec

__all__ = ["PARAVIEW_REPORTED_VPS", "CpuClusterResult", "run_cpu_cluster_baseline"]

#: Moreland et al. (Cray XT3 / ParaView): 346 million voxels per second
#: with 512 processes.
PARAVIEW_REPORTED_VPS = 346e6

#: Per-process software-rendering voxel rate implied by the report,
#: with ~5% parallel overhead at 512 processes folded back out.
VOXELS_PER_SEC_PER_PROC = PARAVIEW_REPORTED_VPS / 512 * 1.05


@dataclass
class CpuClusterResult:
    """One CPU-cluster frame."""

    n_procs: int
    runtime: float
    render_seconds: float
    composite_seconds: float
    voxel_count: int

    @property
    def vps(self) -> float:
        return self.voxel_count / self.runtime


def run_cpu_cluster_baseline(
    volume_shape: tuple[int, int, int],
    image_pixels: int = 512 * 512,
    n_procs: int = 512,
    voxel_rate_per_proc: float = VOXELS_PER_SEC_PER_PROC,
    network: NetworkSpec | None = None,
    pixel_nbytes: int = 16,
) -> CpuClusterResult:
    """Model one frame of a sort-last CPU-cluster renderer.

    Rendering parallelises perfectly over voxels; compositing is a
    direct-send exchange where every process ships its partial image
    share to the owners (≈ one full image crossing each NIC-pair epoch),
    plus a per-peer message overhead that grows with the process count —
    the term that caps CPU-cluster VPS at high process counts.
    """
    if n_procs < 1:
        raise ValueError("need at least one process")
    if image_pixels < 0:
        raise ValueError("image_pixels must be non-negative")
    net = network or NetworkSpec()
    voxels = int(np.prod(volume_shape))
    render = voxels / (voxel_rate_per_proc * n_procs)
    if n_procs == 1:
        composite = 0.0
    else:
        image_bytes = image_pixels * pixel_nbytes
        # Each process sends its partial image, sliced across n-1 peers.
        per_proc_bytes = image_bytes  # its full partial image leaves the node
        composite = (
            per_proc_bytes / net.bandwidth
            + (n_procs - 1) * net.message_overhead
            + net.latency
        )
    runtime = render + composite
    return CpuClusterResult(
        n_procs=n_procs,
        runtime=runtime,
        render_seconds=render,
        composite_seconds=composite,
        voxel_count=voxels,
    )
