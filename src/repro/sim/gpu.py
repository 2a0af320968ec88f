"""GPU device model.

The paper ran on NCSA's Accelerator Cluster: each node hosted a Tesla
S1070 (four logical C1060 GPUs).  We model a GPU as a small set of
throughput constants plus cost functions for the kernels the renderer
actually launches.  The constants below are calibrated to the paper's
stated micro-costs (see ``repro.sim.presets``) rather than to vendor peak
numbers — the goal is that *stage-time ratios* match the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GPUSpec"]

MiB = 1024 * 1024
GiB = 1024 * MiB


@dataclass(frozen=True)
class GPUSpec:
    """Throughput model for one GPU.

    Attributes
    ----------
    name:
        Human-readable device name.
    vram_bytes:
        Device memory capacity; a :class:`~repro.core.chunk.Chunk` must fit
        here (paper restriction #1).
    texture_samples_per_sec:
        Sustained trilinear 3D-texture sample rate of the ray-cast kernel,
        including the transfer-function lookup and blend per sample.  This
        is the dominant Map-phase constant.  Calibrated to the paper's
        §6.3 measurement (~4 GPU-seconds of ray casting for a 1024³
        volume), not to the C1060's theoretical fill rate.
    texture_setup_overhead:
        Fixed seconds per 3D-texture chunk upload: ``cudaMalloc3DArray``
        plus the *synchronous* copy setup the paper was forced into
        ("in order to use a CUDA 3-D texture, we were forced to use
        synchronous memory copies").  Charged once per chunk.
    task_setup_overhead:
        Fixed seconds to stage a multi-kernel GPU task (sort or reduce):
        buffer allocation, several kernel launches with host sync.  This
        is what makes the *CPU* win sort/reduce at small fragment counts
        — the paper's empirical §3.1.2 observation.
    ray_setup_per_sec:
        Rate of per-ray fixed work (ray-box slab test, init, final emit).
    kernel_launch_overhead:
        Fixed seconds per kernel launch.
    sort_keys_per_sec:
        GPU counting-sort throughput (keys/s) — used by the GPU flavor of
        the Sort stage.
    composite_frags_per_sec:
        GPU fragment-compositing throughput for the GPU Reduce variant.
    """

    name: str = "Tesla C1060"
    vram_bytes: int = 4 * GiB
    texture_samples_per_sec: float = 40e6
    ray_setup_per_sec: float = 400e6
    kernel_launch_overhead: float = 8e-6
    texture_setup_overhead: float = 18e-3
    task_setup_overhead: float = 2.5e-3
    sort_keys_per_sec: float = 400e6
    composite_frags_per_sec: float = 120e6
    # Future-work (§7) knobs:
    zero_copy_bandwidth: float = 1.5e9  # host-mapped writes, ~2 orders < VRAM
    manual_filter_slowdown: float = 1.6  # shared-mem trilinear vs HW filtering

    # -- kernel cost models ---------------------------------------------
    def raycast_time(self, n_rays: int, n_samples: int) -> float:
        """Seconds for one ray-cast map kernel over a chunk.

        ``n_rays`` is the (block-padded) thread count; ``n_samples`` is the
        total number of trilinear volume samples taken by all rays.
        """
        if n_rays < 0 or n_samples < 0:
            raise ValueError("negative work")
        return (
            self.kernel_launch_overhead
            + n_rays / self.ray_setup_per_sec
            + n_samples / self.texture_samples_per_sec
        )

    def sort_time(self, n_pairs: int) -> float:
        """Seconds for the GPU counting sort of ``n_pairs`` key-value pairs."""
        return self.kernel_launch_overhead + n_pairs / self.sort_keys_per_sec

    def composite_time(self, n_fragments: int) -> float:
        """Seconds for GPU per-pixel compositing of ``n_fragments``."""
        return self.kernel_launch_overhead + n_fragments / self.composite_frags_per_sec
