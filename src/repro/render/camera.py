"""Pinhole camera and per-brick screen footprints.

The paper launches the map kernel on "a 2D grid of 2D blocks ... made to
match the size of the sub-image (with a potentially small amount of
padding) onto which the current chunk projects".  :meth:`Camera.brick_rect`
reproduces that: project the brick's corners, take the bounding rectangle,
pad it up to whole 16×16 blocks, clip to the viewport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Camera", "PixelRect", "orbit_camera", "rect_areas"]

BLOCK = 16  # CUDA block edge used by the paper's kernel

# Corner c of a box takes hi on axis a when bit a of c is set.
_CORNER_BITS = (np.arange(8)[:, None] >> np.arange(3)[None, :]) & 1 == 1


@dataclass(frozen=True)
class PixelRect:
    """Half-open pixel rectangle ``[x0,x1) × [y0,y1)``."""

    x0: int
    y0: int
    x1: int
    y1: int

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        return max(self.width, 0) * max(self.height, 0)

    @property
    def empty(self) -> bool:
        return self.width <= 0 or self.height <= 0

    def pixel_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(px, py) integer coordinates of every pixel, x fastest."""
        ys, xs = np.mgrid[self.y0 : self.y1, self.x0 : self.x1]
        return xs.ravel(), ys.ravel()


def rect_areas(rects: np.ndarray) -> np.ndarray:
    """Pixel count of each ``[x0, y0, x1, y1]`` row of ``rects``
    (:attr:`PixelRect.area` of each)."""
    return np.maximum(rects[:, 2] - rects[:, 0], 0) * np.maximum(rects[:, 3] - rects[:, 1], 0)


@dataclass(frozen=True)
class Camera:
    """Right-handed perspective camera.

    ``eye`` looks at ``center``; ``fov_y`` is the vertical field of view
    in radians; the image is ``width × height`` pixels.  Pixel (0,0) is
    the top-left corner; the paper's key convention
    ``pixel = y*width + x`` is provided by :meth:`pixel_index`.
    """

    eye: tuple[float, float, float]
    center: tuple[float, float, float]
    up: tuple[float, float, float] = (0.0, 0.0, 1.0)
    fov_y: float = math.radians(45.0)
    width: int = 512
    height: int = 512

    def __post_init__(self):
        for name in ("eye", "center", "up"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"camera {name} must be finite, got {getattr(self, name)}")
        if self.width < 1 or self.height < 1:
            raise ValueError("image must be at least 1x1")
        if not 0 < self.fov_y < math.pi:
            raise ValueError("fov_y must be in (0, pi)")
        fwd = np.asarray(self.center, np.float64) - np.asarray(self.eye, np.float64)
        n = np.linalg.norm(fwd)
        if n == 0:
            raise ValueError("eye and center coincide")
        fwd = fwd / n
        upv = np.asarray(self.up, np.float64)
        right = np.cross(fwd, upv)
        rn = np.linalg.norm(right)
        if rn < 1e-12:
            raise ValueError("up vector is parallel to the view direction")
        right /= rn
        true_up = np.cross(right, fwd)
        object.__setattr__(self, "_fwd", fwd)
        object.__setattr__(self, "_right", right)
        object.__setattr__(self, "_up", true_up)
        object.__setattr__(self, "_focal", (self.height / 2.0) / math.tan(self.fov_y / 2.0))

    def __getstate__(self):
        # The cached full-viewport direction grid (see footprint_rays_f32) is
        # a per-process render cache, not camera state — and at ~12 B per
        # pixel it would bloat every pickled per-frame payload the
        # multiprocess executor ships to its workers.  Receivers rebuild
        # it lazily on first use.
        state = dict(self.__dict__)
        state.pop("_dirs32_grid", None)
        return state

    # -- basis ------------------------------------------------------------
    @property
    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(right, up, forward) world-space unit vectors."""
        return self._right, self._up, self._fwd

    @property
    def focal_pixels(self) -> float:
        return self._focal

    # -- rays ------------------------------------------------------------
    def rays_for_pixels(
        self, px: np.ndarray, py: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(origins, unit directions) for rays through pixel centers.

        ``px``/``py`` are integer pixel coordinates; rays pass through
        ``(px+0.5, py+0.5)``.  Screen y grows downward, so it maps to
        −up.
        """
        px = np.asarray(px, dtype=np.float64)
        py = np.asarray(py, dtype=np.float64)
        u = px + 0.5 - self.width / 2.0
        v = py + 0.5 - self.height / 2.0
        dirs = (
            self._fwd[None, :]
            + (u / self._focal)[:, None] * self._right[None, :]
            - (v / self._focal)[:, None] * self._up[None, :]
        )
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        origins = np.broadcast_to(
            np.asarray(self.eye, dtype=np.float64), dirs.shape
        ).copy()
        return origins, dirs

    def rays_for_rect(self, rect: PixelRect) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(origins, dirs, pixel_keys) for every pixel in a rect."""
        px, py = rect.pixel_coords()
        o, d = self.rays_for_pixels(px, py)
        return o, d, self.pixel_index(px, py)

    def _dirs32(self) -> np.ndarray:
        """Float32 unit directions of every viewport pixel, ``(h·w, 3)``
        in key order — cached: a camera is immutable and every brick of
        a frame shares it.

        The grid is built from the 1-D pixel columns by broadcasting,
        with per element exactly the operations of
        :meth:`rays_for_pixels` (which it equals, cast to float32).
        """
        grid = getattr(self, "_dirs32_grid", None)
        if grid is None:
            u = (np.arange(self.width, dtype=np.float64) + 0.5 - self.width / 2.0) / self._focal
            v = (np.arange(self.height, dtype=np.float64) + 0.5 - self.height / 2.0) / self._focal
            dirs = (
                self._fwd + u[None, :, None] * self._right - v[:, None, None] * self._up
            ).reshape(-1, 3)
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            grid = dirs.astype(np.float32)
            object.__setattr__(self, "_dirs32_grid", grid)
        return grid

    def footprint_rays_f32(
        self, rects: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unit dirs float32, pixel keys, offsets) of the rays of the
        ``(n, 4)`` footprints ``rects`` (rows ``[x0, y0, x1, y1]``),
        concatenated — the NumPy set-up's ray gather.

        Rect ``i`` owns rays ``offsets[i]:offsets[i + 1]``, x fastest.
        One key computation and one gather from the cached direction
        grid serve the whole list, so a launch's ray set-up does not
        grow with its brick count.
        """
        rects = np.asarray(rects, dtype=np.int32).reshape(-1, 4)
        # Per rect: its ray count, its first key and its width.
        areas = rect_areas(rects)
        first = rects[:, 1] * np.int32(self.width) + rects[:, 0]
        widths = rects[:, 2] - rects[:, 0]
        offsets = np.zeros(len(rects) + 1, dtype=np.int32)
        np.cumsum(areas, dtype=np.int32, out=offsets[1:])
        ray = np.arange(offsets[-1], dtype=np.int32)
        row = (ray - np.repeat(offsets[:-1], areas)) // np.repeat(widths, areas)
        # key = (y0 + row)·W + x0 + col, with col = ray − offset − row·w
        keys = ray + np.repeat(first - offsets[:-1], areas)
        keys += row * np.repeat(np.int32(self.width) - widths, areas)
        return np.take(self._dirs32(), keys, axis=0), keys, offsets

    def pixel_index(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """The paper's MapReduce key: ``y * width + x`` as int32."""
        return (np.asarray(py) * self.width + np.asarray(px)).astype(np.int32)

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    # -- projection ----------------------------------------------------------
    def project_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project world points to pixel coordinates.

        Returns (xy, in_front): ``xy`` is ``(N,2)`` pixel coordinates and
        ``in_front`` flags points with positive camera depth.  Points
        behind the eye get non-finite coordinates.
        """
        p = np.asarray(points, dtype=np.float64) - np.asarray(self.eye, np.float64)
        xc = p @ self._right
        yc = p @ self._up
        zc = p @ self._fwd
        in_front = zc > 1e-9
        with np.errstate(divide="ignore", invalid="ignore"):
            x = self._focal * xc / zc + self.width / 2.0
            y = -self._focal * yc / zc + self.height / 2.0
        x = np.where(in_front, x, np.nan)
        y = np.where(in_front, y, np.nan)
        return np.stack([x, y], axis=-1), in_front

    def _corner_rects(self, corners: np.ndarray, pad_to_block: bool) -> np.ndarray:
        """Padded, clipped footprints of ``(B, K, 3)`` corner sets, all
        projected in one pass: ``(B, 4)`` int64 rows ``[x0, y0, x1, y1]``."""
        n_boxes, n_corners = corners.shape[:2]
        xy, in_front = self.project_points(corners.reshape(-1, 3))
        xy = xy.reshape(n_boxes, n_corners, 2)
        # A corner behind the eye: the footprint conservatively covers
        # the whole viewport (the eye is inside/near the box).
        behind = ~in_front.reshape(n_boxes, n_corners).all(axis=1)
        size = np.array([self.width, self.height])
        lo = np.where(behind[:, None], 0.0, np.floor(xy.min(axis=1)))
        hi = np.where(behind[:, None], size, np.ceil(xy.max(axis=1)))
        # Clipped a block outside the viewport before the integer cast
        # (a grazing corner projects arbitrarily far out); padding and
        # the final clip cannot tell.
        lo = np.clip(lo, -BLOCK, size + BLOCK).astype(np.int64)
        hi = np.clip(hi, -BLOCK, size + BLOCK).astype(np.int64)
        if pad_to_block:
            lo = (lo // BLOCK) * BLOCK
            hi = ((hi + BLOCK - 1) // BLOCK) * BLOCK
        return np.concatenate([np.clip(lo, 0, size), np.clip(hi, 0, size)], axis=1)

    def brick_rect(
        self, corners: np.ndarray, pad_to_block: bool = True
    ) -> PixelRect:
        """Padded, clipped screen footprint of a world-space box, given
        its ``(K, 3)`` corners."""
        corners = np.asarray(corners, dtype=np.float64)
        return PixelRect(*self._corner_rects(corners[None], pad_to_block)[0].tolist())

    def box_rects(
        self, los: Sequence, his: Sequence, pad_to_block: bool = True
    ) -> np.ndarray:
        """:meth:`brick_rect` of every axis-aligned box ``[los[i],
        his[i]]`` — one projection for the whole list (a launch's
        bricks), as ``(n, 4)`` int64 rows ``[x0, y0, x1, y1]``."""
        los = np.asarray(los, dtype=np.float64).reshape(-1, 1, 3)
        his = np.asarray(his, dtype=np.float64).reshape(-1, 1, 3)
        return self._corner_rects(np.where(_CORNER_BITS, his, los), pad_to_block)

    def box_rect(
        self, lo: Sequence[float], hi: Sequence[float], pad_to_block: bool = True
    ) -> PixelRect:
        """:meth:`box_rects` of one box."""
        return PixelRect(*self.box_rects([lo], [hi], pad_to_block)[0].tolist())


def orbit_camera(
    volume_shape: Sequence[int],
    azimuth_deg: float = 30.0,
    elevation_deg: float = 20.0,
    distance_factor: float = 3.6,
    width: int = 512,
    height: int = 512,
    fov_deg: float = 45.0,
) -> Camera:
    """Camera orbiting the volume center — the paper's interactive view."""
    for name, value in (("azimuth", azimuth_deg), ("elevation", elevation_deg)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    shape = np.asarray(volume_shape, dtype=np.float64)
    center = shape / 2.0
    radius = float(np.linalg.norm(shape)) / 2.0
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    direction = np.array(
        [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
    )
    eye = center + direction * radius * distance_factor
    return Camera(
        eye=tuple(eye),
        center=tuple(center),
        up=(0.0, 0.0, 1.0),
        fov_y=math.radians(fov_deg),
        width=width,
        height=height,
    )
