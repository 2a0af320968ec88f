"""Disk model.

Calibrated from the paper's single stated disk cost: "loading a 64³ block
from disk takes approximately 20 ms on our cluster".  A 64³ float brick is
1 MiB; with 5 ms of seek/issue latency and ~70 MB/s effective streaming
bandwidth that read costs 5 + 15 = 20 ms, matching the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DiskSpec"]


@dataclass(frozen=True)
class DiskSpec:
    """Latency/bandwidth model of a node-local disk."""

    latency: float = 5e-3
    bandwidth: float = 70e6

    def read_time(self, nbytes: int) -> float:
        """Unloaded time to read ``nbytes`` (one seek + streaming)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.latency + nbytes / self.bandwidth
