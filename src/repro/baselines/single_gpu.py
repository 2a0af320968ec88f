"""Mars-like single-GPU baseline.

Mars (He et al. 2008) was "the first large-scale GPU-based MapReduce
system.  It works with a single GPU on a single node, but only on
in-core datasets."  This baseline enforces exactly those limits: one
GPU, and the *whole* volume (not just one brick) must fit in VRAM at
once — demonstrating why the paper's streaming/out-of-core design
matters for 512³+ volumes on 4 GB devices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pipeline.renderer import MapReduceVolumeRenderer, RenderResult
from ..render.camera import Camera
from ..render.raycast import RenderConfig
from ..render.transfer import TransferFunction1D
from ..sim.presets import laptop
from ..volume.volume import Volume

__all__ = ["InCoreOnlyError", "SingleGpuBaseline"]


class InCoreOnlyError(MemoryError):
    """Raised when a dataset exceeds the single GPU's memory."""


@dataclass
class SingleGpuBaseline:
    """A renderer with Mars's restrictions."""

    tf: TransferFunction1D
    render_config: RenderConfig = RenderConfig()

    def check_fits(self, volume_nbytes: int) -> None:
        spec = laptop().gpu_specs()[0]
        if volume_nbytes > spec.vram_bytes:
            raise InCoreOnlyError(
                f"volume of {volume_nbytes} B exceeds single-GPU VRAM "
                f"({spec.vram_bytes} B); Mars-style systems cannot render it"
            )

    def would_fit(self, volume_shape: tuple[int, int, int]) -> bool:
        nbytes = int(np.prod(volume_shape)) * 4
        spec = laptop().gpu_specs()[0]
        return nbytes <= spec.vram_bytes

    def render(self, volume: Volume, camera: Camera) -> RenderResult:
        """Render in-core on one GPU, or refuse (the Mars limitation)."""
        self.check_fits(volume.nbytes)
        renderer = MapReduceVolumeRenderer(
            volume=volume,
            cluster=laptop(),
            tf=self.tf,
            render_config=self.render_config,
        )
        return renderer.render(camera, bricks_per_gpu=1)
