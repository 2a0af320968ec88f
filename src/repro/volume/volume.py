"""Volume container.

A :class:`Volume` is a dense 3-D scalar field of ``float32`` samples —
the paper's input datasets are "four-byte floating-point samples".

Conventions used throughout the renderer:

* ``data`` has shape ``(nx, ny, nz)`` and is indexed ``data[ix, iy, iz]``.
* Voxel ``i`` occupies the world-space slab ``[i, i+1)`` on its axis, so
  the whole volume fills the box ``[0,nx] × [0,ny] × [0,nz]`` and voxel
  *centers* sit at ``i + 0.5``.  Trilinear interpolation is defined on
  the lattice of centers with clamp-to-edge behaviour, matching the
  CUDA 3D-texture addressing the paper relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["Volume", "field_on_grid"]


def field_on_grid(
    field: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    shape: Sequence[int],
    lo: Sequence[int] = (0, 0, 0),
    hi: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Evaluate a normalized-coordinate scalar field on a voxel sub-grid.

    ``field`` takes broadcastable arrays of coordinates in ``[0, 1]³``
    (fractions of the *full* volume extent given by ``shape``) and returns
    scalar values.  Only voxels ``lo ≤ i < hi`` are evaluated, which lets
    callers materialise single bricks of arbitrarily large volumes.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or any(s < 1 for s in shape):
        raise ValueError(f"shape must be three positive ints, got {shape}")
    hi = tuple(shape) if hi is None else tuple(int(h) for h in hi)
    lo = tuple(int(l) for l in lo)
    if any(l < 0 or h > s or l >= h for l, h, s in zip(lo, hi, shape)):
        raise ValueError(f"bad region {lo}..{hi} for shape {shape}")
    # Voxel-center coordinates normalised by the full extent.
    xs = (np.arange(lo[0], hi[0], dtype=np.float64) + 0.5) / shape[0]
    ys = (np.arange(lo[1], hi[1], dtype=np.float64) + 0.5) / shape[1]
    zs = (np.arange(lo[2], hi[2], dtype=np.float64) + 0.5) / shape[2]
    out = field(xs[:, None, None], ys[None, :, None], zs[None, None, :])
    out = np.broadcast_to(out, (hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]))
    return np.ascontiguousarray(out, dtype=np.float32)


@dataclass
class Volume:
    """A dense float32 scalar volume plus its metadata."""

    data: np.ndarray
    name: str = "volume"

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise ValueError(f"volume data must be 3-D, got ndim={self.data.ndim}")
        if self.data.dtype != np.float32:
            self.data = np.ascontiguousarray(self.data, dtype=np.float32)

    # -- geometry ------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    def resolution_label(self) -> str:
        """Human label like '256^3' or '512x512x2048'."""
        nx, ny, nz = self.shape
        if nx == ny == nz:
            return f"{nx}^3"
        return f"{nx}x{ny}x{nz}"

    # -- access ----------------------------------------------------------
    def region(self, lo: Sequence[int], hi: Sequence[int]) -> np.ndarray:
        """Copy of the half-open voxel region ``lo ≤ i < hi``."""
        lo = tuple(int(l) for l in lo)
        hi = tuple(int(h) for h in hi)
        if any(l < 0 or h > s or l >= h for l, h, s in zip(lo, hi, self.shape)):
            raise ValueError(f"bad region {lo}..{hi} for shape {self.shape}")
        return np.ascontiguousarray(
            self.data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
        )
