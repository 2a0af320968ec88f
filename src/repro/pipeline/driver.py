"""Orbit camera paths.

"Scientists care about the frame rate of their visualization" (§4.2),
and an orbit is the canonical interaction: :func:`orbit_path` gives its
cameras.  The paper's simulated Figure 4 orbit is
:func:`~repro.pipeline.workload.simulate_sequence`; a functional orbit
is a submit/collect loop over
:meth:`~repro.pipeline.MapReduceVolumeRenderer.submit_frame` that keeps
the renderer's ``frame_pipeline_depth`` frames in flight.
"""

from __future__ import annotations

from typing import Sequence

from ..render.camera import Camera, orbit_camera

__all__ = ["orbit_path"]


def orbit_path(
    volume_shape: Sequence[int], n_frames: int, width: int = 512, height: int = 512
) -> list[Camera]:
    """Cameras for one azimuthal turn around the volume, 20° above its
    equator."""
    if n_frames < 1:
        raise ValueError("need at least one frame")
    return [
        orbit_camera(
            volume_shape,
            azimuth_deg=360.0 * i / n_frames,
            elevation_deg=20.0,
            distance_factor=2.2,
            width=width,
            height=height,
        )
        for i in range(n_frames)
    ]
