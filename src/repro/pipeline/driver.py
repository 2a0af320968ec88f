"""Frame-sequence driver.

"Scientists care about the frame rate of their visualization" (§4.2) —
this module renders orbits (the canonical interaction) and reports the
sustained FPS measured on the functional pipeline, rather than
single-frame numbers.  Per-frame timings also expose view-dependence:
fragment counts and stage times change with the camera angle, which
single-frame benchmarks hide.  The paper's simulated Figure 4 orbit is
:func:`~repro.pipeline.workload.simulate_sequence`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..render.camera import Camera, orbit_camera
from .renderer import MapReduceVolumeRenderer, RenderResult

__all__ = ["orbit_path", "RotationResult", "render_rotation"]


def orbit_path(
    volume_shape: Sequence[int],
    n_frames: int,
    elevation_deg: float = 20.0,
    width: int = 512,
    height: int = 512,
    distance_factor: float = 2.2,
    full_turns: float = 1.0,
) -> list[Camera]:
    """Cameras for an azimuthal orbit around the volume."""
    if n_frames < 1:
        raise ValueError("need at least one frame")
    return [
        orbit_camera(
            volume_shape,
            azimuth_deg=360.0 * full_turns * i / n_frames,
            elevation_deg=elevation_deg,
            distance_factor=distance_factor,
            width=width,
            height=height,
        )
        for i in range(n_frames)
    ]


@dataclass
class RotationResult:
    """Measured per-frame wall-clock times of one orbit, and optionally
    its images.

    ``wall_seconds[i]`` is the interval between the completions of
    frames *i − 1* and *i* (for the first frame, since the orbit
    started), so their sum is the orbit's end-to-end wall time however
    many frames were in flight.  Simulated frame times come from
    :func:`~repro.pipeline.workload.simulate_sequence` instead.
    """

    wall_seconds: list[float]
    images: list[np.ndarray] = field(default_factory=list)
    results: list[RenderResult] = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        return len(self.wall_seconds)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.wall_seconds))

    @property
    def mean_fps(self) -> float:
        if self.total_seconds <= 0:
            raise ValueError("no timed frames")
        return self.n_frames / self.total_seconds

    @property
    def worst_frame(self) -> float:
        return max(self.wall_seconds)

    @property
    def frame_time_spread(self) -> float:
        """max/min frame time — the view-dependence of the workload."""
        lo = min(self.wall_seconds)
        return self.worst_frame / lo if lo > 0 else float("inf")


def render_rotation(
    renderer: MapReduceVolumeRenderer,
    n_frames: int = 8,
    elevation_deg: float = 20.0,
    width: int = 512,
    height: int = 512,
    bricks_per_gpu: int = 2,
    keep_images: bool = False,
) -> RotationResult:
    """Render an orbit functionally and time each frame's wall clock
    (use small volumes/images).

    One submit/collect loop keeps up to the renderer's
    ``frame_pipeline_depth`` frames in flight.  At depth 1 each frame is
    submitted and then collected.  At depth 2 (a pool executor) the
    orbit is **double-buffered**: frame *k+1* is submitted before frame
    *k* is collected, so the workers map+reduce the next frame while the
    parent stitches the current one.  Frame completion order and every
    image are the same at any depth.
    """
    cams = orbit_path(
        renderer.volume_shape, n_frames, elevation_deg, width, height
    )
    depth = renderer.frame_pipeline_depth
    rot = RotationResult(wall_seconds=[])
    inflight: deque = deque()
    mark = time.perf_counter()

    def complete_oldest() -> None:
        nonlocal mark
        res = renderer.collect_frame(inflight.popleft())
        now = time.perf_counter()
        rot.wall_seconds.append(now - mark)
        mark = now
        rot.results.append(res)
        if keep_images:
            rot.images.append(res.image)

    for cam in cams:
        inflight.append(renderer.submit_frame(cam, bricks_per_gpu=bricks_per_gpu))
        if len(inflight) >= depth:
            complete_oldest()
    while inflight:
        complete_oldest()
    return rot
