"""Single-pass reference renderer.

Treats the entire volume as one brick and runs the same kernel the
distributed pipeline uses — including the blocked vectorized marcher and
its fixed block length.  Because the MapReduce
renderer samples on the identical global-t lattice, its composited
output must equal this reference exactly (with early termination
disabled) — the strongest end-to-end correctness check available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..volume.volume import Volume
from .camera import Camera
from .compositing import composite_fragments
from .raycast import MapStats, RenderConfig, raycast_brick
from .transfer import TransferFunction1D

__all__ = ["render_reference", "ReferenceResult"]


@dataclass
class ReferenceResult:
    """Image plus kernel statistics of a reference render."""

    image: np.ndarray  # (height, width, 4) premultiplied RGBA
    fragments: np.ndarray
    stats: MapStats


def render_reference(
    volume: Volume,
    camera: Camera,
    tf: TransferFunction1D,
    config: RenderConfig = RenderConfig(),
) -> ReferenceResult:
    """Ray cast the whole volume in one pass and composite to an image."""
    fragments, stats = raycast_brick(
        data=volume.data,
        data_lo=(0, 0, 0),
        core_lo=(0, 0, 0),
        core_hi=volume.shape,
        volume_shape=volume.shape,
        camera=camera,
        tf=tf,
        config=config,
    )
    flat = composite_fragments(fragments, camera.pixel_count)
    image = flat.reshape(camera.height, camera.width, 4)
    return ReferenceResult(image=image, fragments=fragments, stats=stats)
