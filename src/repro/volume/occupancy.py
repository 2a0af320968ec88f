"""Per-brick occupancy estimation.

Ray fragments "with no contributions are discarded" (paper §3), so the
number of fragments a brick emits — and therefore all communication
volumes — depends on how much of the brick is non-empty under the
transfer function.  For in-core volumes we measure occupancy exactly;
for figure-scale volumes (1024³) we estimate it by evaluating the
procedural field on a coarse lattice inside each brick, which costs a
few hundred samples per brick instead of millions of voxels.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .bricking import Brick, BrickGrid
from .volume import Volume

__all__ = [
    "brick_occupancy_exact",
    "brick_occupancy_estimate",
    "grid_occupancy",
]


def brick_occupancy_exact(
    volume: Volume, grid: BrickGrid, brick: Brick, threshold: float
) -> float:
    """Exact fraction of core voxels whose value exceeds ``threshold``."""
    core = volume.region(brick.lo, brick.hi)
    return float(np.count_nonzero(core > threshold)) / core.size


def brick_occupancy_estimate(
    field: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    volume_shape: Sequence[int],
    brick: Brick,
    threshold: float,
    samples_per_axis: int = 8,
) -> float:
    """Estimate occupancy by sampling the field on a coarse lattice.

    Samples are placed at stratified positions inside the brick's core,
    expressed in the normalised coordinates the dataset fields use.
    """
    if samples_per_axis < 1:
        raise ValueError("need at least one sample per axis")
    shape = np.asarray(volume_shape, dtype=np.float64)
    lo = np.asarray(brick.lo, dtype=np.float64)
    hi = np.asarray(brick.hi, dtype=np.float64)
    axes = [
        (lo[a] + (np.arange(samples_per_axis) + 0.5) / samples_per_axis * (hi[a] - lo[a]))
        / shape[a]
        for a in range(3)
    ]
    vals = field(axes[0][:, None, None], axes[1][None, :, None], axes[2][None, None, :])
    vals = np.broadcast_to(vals, (samples_per_axis,) * 3)
    return float(np.count_nonzero(vals > threshold)) / vals.size


def grid_occupancy(
    grid: BrickGrid,
    threshold: float,
    volume: Volume | None = None,
    field: Callable | None = None,
    samples_per_axis: int = 8,
) -> np.ndarray:
    """Occupancy per brick, exact when a volume is given, else estimated.

    Returns an array of length ``len(grid)`` aligned with brick ids.
    """
    if (volume is None) == (field is None):
        raise ValueError("pass exactly one of volume= or field=")
    out = np.empty(len(grid), dtype=np.float64)
    for b in grid:
        if volume is not None:
            out[b.id] = brick_occupancy_exact(volume, grid, b, threshold)
        else:
            out[b.id] = brick_occupancy_estimate(
                field, grid.volume_shape, b, threshold, samples_per_axis
            )
    return out
