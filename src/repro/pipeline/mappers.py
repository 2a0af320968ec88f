"""Map-phase implementations.

:class:`RayCastMapper` is the paper's mapper: one ray-cast kernel launch
over the chunks (bricks) of a map task.  :class:`MaxIntensityMapper`
demonstrates the library's pluggability claim (§6.1): swapping the volume-sampling technique
touches *only* the map phase — partitioning, sort, and the reduce shape
stay identical (MIP reduces with ``max`` instead of ``over``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.api import Mapper, MapOutput
from ..core.chunk import Chunk
from ..render.camera import Camera, PixelRect
from ..render.fragments import FRAGMENT_DTYPE, PLACEHOLDER_KEY, make_fragments
from ..render.geometry import box_contains, ray_box_intersect
from ..render.raycast import (
    BrickTask,
    RenderConfig,
    cut_launches,
    raycast_bricks,
    trilinear_sample,
)
from ..render.transfer import TransferFunction1D

__all__ = ["RayCastMapper", "MaxIntensityMapper", "MIP_DTYPE"]


class RayCastMapper(Mapper):
    """The paper's map task: partial ray casting against bricks.

    A chunk's ``meta`` must be a :class:`~repro.volume.bricking.Brick`;
    its payload is the ghost-padded voxel block.  :meth:`map_batch`
    casts a list of chunks in one fused kernel launch and
    :meth:`launch_sizes` says how many consecutive chunks a launch
    should take; :meth:`map` is a launch of one.
    """

    def __init__(
        self,
        camera: Camera,
        tf: TransferFunction1D,
        volume_shape: tuple[int, int, int],
        config: RenderConfig = RenderConfig(),
        accel_token: Optional[str] = None,
    ):
        self.camera = camera
        self.tf = tf
        self.volume_shape = tuple(volume_shape)
        self.config = config
        # Stable per-volume token (see repro.render.accel.volume_token);
        # enables empty-space-table reuse across frames when set.
        self.accel_token = accel_token
        self._initialized = False
        self._rects: dict = {}

    def initialize(self, device=None) -> None:
        """Upload-once static state (view matrix, transfer-function texture)."""
        self._initialized = True

    def static_device_bytes(self) -> int:
        # View parameters + the 1D transfer-function texture.
        return 256 + self.tf.nbytes

    def accel_key_for(self, chunk: Chunk) -> Optional[tuple]:
        """Base acceleration-cache key for one chunk (None when untokened).

        The corner-max table is cached under this key directly, its
        occupied box under ``("box",) + key``.
        """
        if self.accel_token is None or self.tf is None:
            return None
        brick = chunk.meta
        if brick is None:
            return None
        # The padded region pins the payload: the same volume can be
        # bricked into different grids (brick id 0 of a 2-brick grid
        # is not brick id 0 of a 4-brick grid).
        return (
            self.accel_token,
            self.tf.version,
            chunk.id,
            tuple(brick.data_lo),
            tuple(brick.data_hi),
        )

    def _bricks(self, chunks: Sequence[Chunk]) -> list:
        bricks = [chunk.meta for chunk in chunks]
        if None in bricks:
            chunk = chunks[bricks.index(None)]
            raise ValueError(f"chunk {chunk.id} lacks Brick metadata")
        return bricks

    def _rects_of(self, bricks: Sequence) -> list[PixelRect]:
        """The brick cores' padded footprints under this mapper's camera
        (remembered: launch planning and the launch itself both need
        them), the unseen ones projected in one call."""
        keys = [(tuple(b.lo), tuple(b.hi)) for b in bricks]
        unseen = [key for key in keys if key not in self._rects]
        if unseen:
            self._rects.update(
                zip(
                    unseen,
                    self.camera.box_rects(
                        [lo for lo, _ in unseen],
                        [hi for _, hi in unseen],
                        self.config.pad_to_block,
                    ),
                )
            )
        return [self._rects[key] for key in keys]

    def launch_sizes(self, chunks: Sequence[Chunk]) -> list[int]:
        """Consecutive chunks fused per launch: as many as fit the
        kernel's ray budget (:data:`~repro.render.raycast.LAUNCH_RAY_BUDGET`)."""
        return cut_launches(
            [rect.area for rect in self._rects_of(self._bricks(chunks))]
        )

    def map(self, chunk: Chunk) -> MapOutput:
        return self.map_batch([chunk])[0]

    def map_batch(self, chunks: Sequence[Chunk]) -> list[MapOutput]:
        """Ray cast ``chunks`` in one kernel launch."""
        bricks = self._bricks(chunks)
        results = raycast_bricks(
            [
                BrickTask(
                    data=chunk.payload(),
                    data_lo=brick.data_lo,
                    core_lo=brick.lo,
                    core_hi=brick.hi,
                    rect=rect,
                    accel_key=self.accel_key_for(chunk),
                )
                for chunk, brick, rect in zip(chunks, bricks, self._rects_of(bricks))
            ],
            volume_shape=self.volume_shape,
            camera=self.camera,
            tf=self.tf,
            config=self.config,
        )
        # The renderer's fragment dtype doubles as the library KV dtype;
        # 'pixel' is the int32 key field.
        return [
            MapOutput(
                fragments,
                work={
                    "n_rays": stats.n_rays,
                    "n_samples": stats.n_samples,
                    "n_active_rays": stats.n_active_rays,
                    "n_emitted": stats.n_emitted
                    if self.config.emit_placeholders
                    else stats.n_rays,
                    "n_positioned": stats.n_positioned,
                },
            )
            for fragments, stats in results
        ]


#: MIP pairs: key + (value, depth placeholder) — homogeneous 12-byte pairs.
MIP_DTYPE = np.dtype([("pixel", np.int32), ("value", np.float32)])


class MaxIntensityMapper(Mapper):
    """Maximum-intensity projection: per-brick max along each ray.

    MIP's fold (``max``) is associative and commutative, so unlike the
    over operator it needs no depth sorting at all — a nice stress of the
    library's generality.  That also makes the blocked march trivial:
    the per-block fold is a plain ``np.maximum`` over the sample axis,
    with no transmittance scan and no termination bookkeeping.
    """

    def __init__(
        self,
        camera: Camera,
        volume_shape: tuple[int, int, int],
        dt: float = 0.5,
        block_size: int = 64,
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        self.camera = camera
        self.volume_shape = tuple(volume_shape)
        self.dt = dt
        self.block_size = block_size

    def map(self, chunk: Chunk) -> MapOutput:
        brick = chunk.meta
        data = chunk.payload()
        core_lo = np.asarray(brick.lo, np.float64)
        core_hi = np.asarray(brick.hi, np.float64)
        rect = self.camera.box_rect(core_lo, core_hi)
        if rect.empty:
            return MapOutput(np.empty(0, MIP_DTYPE), work={"n_rays": 0, "n_samples": 0})
        origins, dirs, keys = self.camera.rays_for_rect(rect)
        tn, tf_, hit = ray_box_intersect(origins, dirs, core_lo, core_hi)
        vol_hi = np.asarray(self.volume_shape, np.float64)
        tv, _, hitv = ray_box_intersect(origins, dirs, np.zeros(3), vol_hi)
        active = hit & hitv
        best = np.full(len(keys), -np.inf, dtype=np.float32)
        n_samples = 0
        if np.any(active):
            idx = np.nonzero(active)[0]
            o_c, d_c, tv_c = origins[idx], dirs[idx], tv[idx]
            k0 = np.maximum(np.floor((tn[idx] - tv_c) / self.dt - 1), 0).astype(np.int64)
            k1 = np.ceil((tf_[idx] - tv_c) / self.dt + 1).astype(np.int64)
            data_lo = np.asarray(brick.data_lo, np.float64)
            K = self.block_size
            for kb in range(int(k0.min()), int(k1.max()) + 1, K):
                ks = np.arange(kb, kb + K, dtype=np.float64)
                live = (k0 <= kb + K - 1) & (k1 >= kb)
                if not live.any():
                    continue
                li = np.nonzero(live)[0]
                t = tv_c[li, None] + (ks[None, :] + 0.5) * self.dt
                p = o_c[li, None, :] + t[..., None] * d_c[li, None, :]
                in_range = (k0[li, None] <= ks[None, :]) & (ks[None, :] <= k1[li, None])
                owned = in_range & box_contains(p, core_lo, core_hi)
                flat = np.nonzero(owned.ravel())[0]
                if flat.size == 0:
                    continue
                local = p.reshape(-1, 3)[flat] - data_lo
                v = trilinear_sample(data, local)
                n_samples += flat.size
                grid = np.full(len(li) * K, -np.inf, dtype=np.float32)
                grid[flat] = v
                block_best = grid.reshape(len(li), K).max(axis=1)
                bi = idx[li]  # unique per block — no scatter races
                best[bi] = np.maximum(best[bi], block_best)
        got = np.isfinite(best) & (best > 0)
        pairs = np.empty(int(got.sum()), MIP_DTYPE)
        pairs["pixel"] = keys[got]
        pairs["value"] = best[got]
        return MapOutput(
            pairs,
            work={"n_rays": len(keys), "n_samples": n_samples},
        )
