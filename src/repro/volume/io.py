"""Bricked on-disk volume format (``.bvol``) and out-of-core reading.

The paper's library "eliminates the need to focus on I/O algorithms": the
runtime streams bricks from disk into mappers.  This module provides the
disk half of that claim — a simple bricked container so any brick can be
read independently with one seek, which is what makes the out-of-core
render path possible.

Layout::

    magic  b"BVOL1\\n"
    u32    header_length
    bytes  header JSON {shape, brick_size, ghost, dtype, name, offsets}
    bytes  brick 0 payload (ghost-padded float32, C order)
    bytes  brick 1 payload
    ...

Offsets are absolute file offsets, so readers can seek straight to any
brick — the access pattern of an out-of-core renderer.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .bricking import BrickGrid
from .volume import Volume

__all__ = ["write_bvol", "BvolReader"]

MAGIC = b"BVOL1\n"


def write_bvol(
    path: Union[str, Path],
    volume: Volume,
    brick_size: Union[int, Sequence[int]],
    ghost: int = 1,
) -> BrickGrid:
    """Brick ``volume`` and write it as a ``.bvol`` container.

    Returns the :class:`BrickGrid` used, which the caller needs to
    interpret brick ids.
    """
    grid = BrickGrid(volume.shape, brick_size, ghost=ghost)
    payloads = [grid.extract(volume, b) for b in grid]
    header = {
        "shape": list(volume.shape),
        "brick_size": list(grid.brick_size),
        "ghost": grid.ghost,
        "dtype": "float32",
        "name": volume.name,
        "offsets": [],
    }
    # Compute offsets with a fixed-point iteration: the header length
    # depends on the offsets' digits. Two passes always converge because
    # we pad the header to its final length.
    blob = json.dumps(header).encode()
    base = len(MAGIC) + 4 + len(blob)
    for _ in range(4):
        offsets = []
        pos = base
        for p in payloads:
            offsets.append(pos)
            pos += p.nbytes
        header["offsets"] = offsets
        blob = json.dumps(header).encode()
        new_base = len(MAGIC) + 4 + len(blob)
        if new_base == base:
            break
        base = new_base
    else:
        raise RuntimeError("header offset fixpoint did not converge")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for p in payloads:
            f.write(np.ascontiguousarray(p).tobytes())
    return grid


class BvolReader:
    """Random-access reader over a ``.bvol`` file.

    Bricks are read lazily — an out-of-core renderer touches only the
    bricks scheduled onto its GPUs, never the whole file.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        with open(self.path, "rb") as f:
            magic = f.read(len(MAGIC))
            if magic != MAGIC:
                raise ValueError(f"{self.path}: not a .bvol file")
            (hlen,) = struct.unpack("<I", f.read(4))
            header = json.loads(f.read(hlen))
        self.name: str = header["name"]
        self.shape = tuple(header["shape"])
        self.grid = BrickGrid(self.shape, tuple(header["brick_size"]), header["ghost"])
        self.offsets: list[int] = header["offsets"]
        if len(self.offsets) != len(self.grid):
            raise ValueError(
                f"{self.path}: {len(self.offsets)} offsets for {len(self.grid)} bricks"
            )
        self.bytes_read = 0

    def read_brick(self, i: int) -> np.ndarray:
        """Read brick ``i``'s ghost-padded payload with a single seek."""
        b = self.grid.brick(i)
        nbytes = b.nbytes
        with open(self.path, "rb") as f:
            f.seek(self.offsets[i])
            raw = f.read(nbytes)
        if len(raw) != nbytes:
            raise IOError(f"{self.path}: short read for brick {i}")
        self.bytes_read += nbytes
        return np.frombuffer(raw, dtype=np.float32).reshape(b.data_shape).copy()

    def file_size(self) -> int:
        return os.path.getsize(self.path)
