"""In-core vs out-of-core planning and brick residency.

Paper §6: "If enough GPUs are available to fit the bricked volume
entirely in core, the speed benefits are obvious.  But if not, the speed
of the rendering is still quite good."

The planner decides which regime a (grid, cluster) pair is in.  When the
assigned bricks fit each GPU's VRAM (beside the mapper's static data),
an *interactive frame sequence* uploads every brick once and re-renders
from residency — the "obvious speed benefit".  Otherwise every frame
streams its bricks through the GPUs again (out-of-core), optionally from
disk.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.executors import MapWork
from ..sim.node import ClusterSpec
from ..volume.bricking import BrickGrid

__all__ = ["ResidencyPlan", "plan_residency", "strip_uploads"]


@dataclass(frozen=True)
class ResidencyPlan:
    """Whether each GPU can keep its assigned bricks resident."""

    in_core: bool
    per_gpu_bytes: tuple[int, ...]  # assigned brick payload per GPU
    vram_bytes: tuple[int, ...]  # capacity per GPU
    static_bytes: int  # mapper constants per GPU


def plan_residency(
    grid: BrickGrid,
    cluster: ClusterSpec,
    static_bytes: int = 0,
    assignment=None,
) -> ResidencyPlan:
    """Check whether round-robin brick assignment fits every GPU's VRAM.

    ``assignment`` optionally maps brick id → GPU (defaults to
    ``id % n_gpus``, the streaming scheduler's order).
    """
    n_gpus = cluster.gpu_count
    specs = cluster.gpu_specs()
    per_gpu = [0] * n_gpus
    for b in grid:
        g = assignment(b.id) if assignment is not None else b.id % n_gpus
        if not 0 <= g < n_gpus:
            raise ValueError(f"assignment sent brick {b.id} to missing GPU {g}")
        per_gpu[g] += b.nbytes
    in_core = all(
        per_gpu[g] + static_bytes <= specs[g].vram_bytes for g in range(n_gpus)
    )
    return ResidencyPlan(
        in_core=in_core,
        per_gpu_bytes=tuple(per_gpu),
        vram_bytes=tuple(s.vram_bytes for s in specs),
        static_bytes=static_bytes,
    )


def strip_uploads(works: list[MapWork]) -> list[MapWork]:
    """Works for a frame whose bricks are already resident on the GPUs.

    Upload bytes and disk reads go to zero; kernel work and fragment
    traffic are unchanged (they depend on the view, not on residency).
    """
    return [
        MapWork(
            chunk_id=w.chunk_id,
            gpu=w.gpu,
            upload_bytes=0,
            n_rays=w.n_rays,
            n_samples=w.n_samples,
            pairs_emitted=w.pairs_emitted,
            pairs_to_reducer=w.pairs_to_reducer.copy(),
            read_from_disk=False,
        )
        for w in works
    ]
