"""Chunks — the unit of map work.

"A Chunk represents a collection of work to be mapped, in our case, it
is a brick of a volume."  A chunk carries either its payload (in-core)
or a recipe to load it (out-of-core: a disk read in the simulated
cluster, a ``.bvol`` seek in the functional path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

__all__ = ["Chunk"]


@dataclass
class Chunk:
    """One unit of map work.

    Attributes
    ----------
    id:
        Stable identifier (brick id for the renderer).
    nbytes:
        GPU-memory footprint of the payload; the library checks this
        against device VRAM (restriction #1) before scheduling.
    data:
        The payload when resident in host memory (in-core mode).
    loader:
        Zero-argument callable producing the payload (out-of-core mode);
        exactly one of ``data``/``loader`` should be set for functional
        runs, neither for timing-only runs.
    on_disk:
        True when the payload must be charged a disk read in the
        simulated pipeline.
    meta:
        Task-specific metadata (the renderer stores the Brick here).
    """

    id: int
    nbytes: int
    data: Optional[np.ndarray] = None
    loader: Optional[Callable[[], np.ndarray]] = None
    on_disk: bool = False
    meta: Any = None

    def __post_init__(self):
        if self.nbytes < 0:
            raise ValueError("chunk nbytes must be non-negative")
        if self.data is not None and self.loader is not None:
            raise ValueError("chunk cannot have both data and loader")

    def payload(self) -> np.ndarray:
        """Return the payload, loading it if necessary."""
        if self.data is not None:
            return self.data
        if self.loader is None:
            raise ValueError(f"chunk {self.id} has no payload source")
        data = self.loader()
        if data.nbytes != self.nbytes:
            raise ValueError(
                f"chunk {self.id}: loader returned {data.nbytes} B, declared {self.nbytes} B"
            )
        return data
