"""Volume bricking.

The paper streams the volume to GPUs as *bricks* ("the volume data is
bricked into small pieces, with each piece represented as a Chunk").
Bricks here carry:

* a **core** half-open voxel region ``[lo, hi)`` — every voxel belongs to
  exactly one brick's core, and a ray sample at world position ``p`` is
  *owned* by the brick whose core contains ``floor(p)`` (half-open test).
  This exact-partition rule is what lets the distributed renderer
  composite to the same image as a single-pass renderer.
* a **ghost shell** of one voxel on every side (clamped at the volume
  boundary), so trilinear interpolation at any owned sample position
  never needs data outside the brick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .volume import Volume

__all__ = ["Brick", "BrickGrid", "bricks_for_gpu_count"]


@dataclass(frozen=True)
class Brick:
    """One brick of a volume: core region plus ghost-padded data region."""

    id: int
    index: tuple[int, int, int]  # (bx, by, bz) position in the brick grid
    lo: tuple[int, int, int]  # core region start (inclusive), voxels
    hi: tuple[int, int, int]  # core region end (exclusive), voxels
    data_lo: tuple[int, int, int]  # padded region start
    data_hi: tuple[int, int, int]  # padded region end

    @property
    def data_shape(self) -> tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.data_lo, self.data_hi))  # type: ignore[return-value]

    @property
    def nbytes(self) -> int:
        """Bytes of the ghost-padded float32 payload uploaded to the GPU."""
        return int(np.prod(self.data_shape)) * 4

    @property
    def world_lo(self) -> np.ndarray:
        """World-space lower corner of the core region."""
        return np.asarray(self.lo, dtype=np.float64)

    @property
    def world_hi(self) -> np.ndarray:
        """World-space upper corner of the core region."""
        return np.asarray(self.hi, dtype=np.float64)


class BrickGrid:
    """Regular decomposition of a volume into ghost-padded bricks."""

    def __init__(
        self,
        volume_shape: Sequence[int],
        brick_size: Union[int, Sequence[int]],
        ghost: int = 1,
    ):
        self.volume_shape = tuple(int(s) for s in volume_shape)
        if len(self.volume_shape) != 3 or any(s < 1 for s in self.volume_shape):
            raise ValueError(f"bad volume shape {volume_shape}")
        if isinstance(brick_size, int):
            brick_size = (brick_size,) * 3
        self.brick_size = tuple(int(b) for b in brick_size)
        if any(b < 1 for b in self.brick_size):
            raise ValueError(f"brick size must be positive, got {self.brick_size}")
        if ghost < 0:
            raise ValueError("ghost must be non-negative")
        self.ghost = int(ghost)
        self.counts = tuple(
            math.ceil(s / b) for s, b in zip(self.volume_shape, self.brick_size)
        )

    def __len__(self) -> int:
        return math.prod(self.counts)

    def __iter__(self) -> Iterator[Brick]:
        for i in range(len(self)):
            yield self.brick(i)

    def brick_index(self, i: int) -> tuple[int, int, int]:
        """Linear id → (bx, by, bz), x fastest."""
        cx, cy, _ = self.counts
        return (i % cx, (i // cx) % cy, i // (cx * cy))

    def brick(self, i: int) -> Brick:
        if not 0 <= i < len(self):
            raise IndexError(f"brick {i} out of range 0..{len(self) - 1}")
        return self.brick_at(*self.brick_index(i))

    def brick_at(self, bx: int, by: int, bz: int) -> Brick:
        idx = (bx, by, bz)
        if any(not 0 <= b < c for b, c in zip(idx, self.counts)):
            raise IndexError(f"brick index {idx} outside grid {self.counts}")
        lo = tuple(b * s for b, s in zip(idx, self.brick_size))
        hi = tuple(
            min((b + 1) * s, n)
            for b, s, n in zip(idx, self.brick_size, self.volume_shape)
        )
        g = self.ghost
        data_lo = tuple(max(l - g, 0) for l in lo)
        data_hi = tuple(min(h + g, n) for h, n in zip(hi, self.volume_shape))
        cx, cy, _ = self.counts
        lin = bx + cx * (by + cy * bz)
        return Brick(lin, idx, lo, hi, data_lo, data_hi)

    # -- payload extraction -------------------------------------------------
    def extract(self, volume: Volume, brick: Brick) -> np.ndarray:
        """Ghost-padded float32 payload of ``brick`` from an in-core volume."""
        if volume.shape != self.volume_shape:
            raise ValueError(
                f"volume shape {volume.shape} != grid shape {self.volume_shape}"
            )
        return volume.region(brick.data_lo, brick.data_hi)

    # -- global properties --------------------------------------------------
    def max_brick_nbytes(self) -> int:
        """Largest brick payload, without building the bricks.

        The grid is a Cartesian product, so the largest brick has the
        longest ghost-padded extent on every axis: a brick at position
        ``b`` of an axis spans ``min((b+1)·s + g, n) − max(b·s − g, 0)``
        voxels of it.
        """
        g = self.ghost
        longest = [
            max(min((b + 1) * s + g, n) - max(b * s - g, 0) for b in range(c))
            for s, n, c in zip(self.brick_size, self.volume_shape, self.counts)
        ]
        return math.prod(longest) * 4


def bricks_for_gpu_count(
    volume_shape: Sequence[int],
    n_gpus: int,
    bricks_per_gpu: int = 2,
    ghost: int = 1,
    min_brick: int = 8,
) -> BrickGrid:
    """Choose a brick size so the brick count is close to ``n_gpus × bricks_per_gpu``.

    The paper's sweet spot keeps "the number of bricks close (roughly
    within a factor of four) to the number of GPUs".  We split the
    longest axis first into near-equal pieces until the target count is
    reached, which keeps bricks as cubic as possible.
    """
    if n_gpus < 1 or bricks_per_gpu < 1:
        raise ValueError("need positive GPU and brick counts")
    shape = tuple(int(s) for s in volume_shape)
    target = n_gpus * bricks_per_gpu
    splits = [1, 1, 1]
    while np.prod(splits) < target:
        # Split the axis with the largest current piece length.
        piece = [s / c for s, c in zip(shape, splits)]
        axis = int(np.argmax(piece))
        if piece[axis] / 2 < min_brick:
            break  # cannot split further without undersized bricks
        splits[axis] *= 2
    brick_size = tuple(math.ceil(s / c) for s, c in zip(shape, splits))
    return BrickGrid(shape, brick_size, ghost=ghost)
