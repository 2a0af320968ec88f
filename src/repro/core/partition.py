"""Partitioners — key → reducer routing.

"Partitioning is done in a per-pixel round-robin fashion.  This is,
empirically, the highest-performing method.  A modulo is sufficient to
determine the reducer to which a key-value pair must be sent."

Two alternatives (striped/block, tiled for images) are provided for the
partitioner ablation the paper's §6 discussion motivates: round-robin
spreads dense pixel keys evenly, while contiguous schemes skew load when
the image footprint is uneven.
"""

from __future__ import annotations

import math

import numpy as np

from .api import Partitioner

__all__ = [
    "RoundRobinPartitioner",
    "BlockPartitioner",
    "TiledPartitioner",
]


class RoundRobinPartitioner(Partitioner):
    """The paper's default: ``reducer = key mod n_reducers``."""

    def partition(self, keys: np.ndarray) -> np.ndarray:
        return (np.asarray(keys, dtype=np.int64) % self.n_reducers).astype(np.int32)


class BlockPartitioner(Partitioner):
    """Striped/contiguous ranges: reducer ``r`` owns keys ``[r·B, (r+1)·B)``."""

    def __init__(self, n_reducers: int, n_keys: int):
        super().__init__(n_reducers)
        if n_keys < 1:
            raise ValueError("n_keys must be positive")
        self.n_keys = n_keys
        self.block = math.ceil(n_keys / n_reducers)

    def partition(self, keys: np.ndarray) -> np.ndarray:
        r = np.asarray(keys, dtype=np.int64) // self.block
        return np.minimum(r, self.n_reducers - 1).astype(np.int32)


class TiledPartitioner(Partitioner):
    """Checkerboard tiles over an image: key = y·width + x, tile owner
    round-robins over reducers.  One of the direct-send distributions the
    paper weighed against per-pixel round-robin."""

    def __init__(self, n_reducers: int, width: int, height: int, tile: int = 32):
        super().__init__(n_reducers)
        if width < 1 or height < 1 or tile < 1:
            raise ValueError("bad image/tile dimensions")
        self.width = width
        self.height = height
        self.tile = tile
        self.tiles_x = math.ceil(width / tile)

    def partition(self, keys: np.ndarray) -> np.ndarray:
        k = np.asarray(keys, dtype=np.int64)
        x = k % self.width
        y = k // self.width
        t = (y // self.tile) * self.tiles_x + (x // self.tile)
        return (t % self.n_reducers).astype(np.int32)

