"""1-D transfer functions.

The paper applies "a texture-based 1D transfer function" per sample to
map scalar values to colour and opacity.  :class:`TransferFunction1D`
mimics a CUDA 1D texture: a fixed-size RGBA table sampled with linear
interpolation and clamp-to-edge addressing.

Opacities in the table are defined for a *reference step length of one
voxel*; the ray caster marches at step ``dt`` against
:meth:`TransferFunction1D.opacity_corrected`, the table whose alpha
entries carry the standard correction ``α' = 1 − (1−α)^(dt)``.  The
correction is taken once per table entry with scalar ``math.pow``, so no
transcendental runs per sample and the result does not depend on which
SIMD ``pow`` NumPy dispatches to on the host CPU.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TransferFunction1D",
    "default_tf",
    "bone_tf",
    "fire_tf",
    "grayscale_tf",
]


@dataclass(frozen=True)
class TransferFunction1D:
    """RGBA lookup table over scalar domain ``[vmin, vmax]``."""

    table: np.ndarray  # (N, 4) float32, straight (non-premultiplied) RGBA
    vmin: float = 0.0
    vmax: float = 1.0

    def __post_init__(self):
        t = np.ascontiguousarray(self.table, dtype=np.float32)
        if t.ndim != 2 or t.shape[1] != 4 or t.shape[0] < 2:
            raise ValueError(f"table must be (N>=2, 4), got {t.shape}")
        if np.any(t < 0) or np.any(t > 1):
            raise ValueError("table entries must lie in [0, 1]")
        if not self.vmax > self.vmin:
            raise ValueError("vmax must exceed vmin")
        object.__setattr__(self, "table", t)
        # Cached forward differences: a lookup then needs one table gather and
        # one diff gather instead of two table gathers plus a subtraction.
        object.__setattr__(self, "_diff", t[1:] - t[:-1])

    @property
    def resolution(self) -> int:
        return self.table.shape[0]

    @property
    def version(self) -> str:
        """Content hash identifying this transfer function.

        Two instances with identical tables and domains share a version;
        any edit produces a new one.  Acceleration caches key on it so a
        changed transfer function can never be served stale tables.
        """
        v = self.__dict__.get("_version")
        if v is None:
            h = hashlib.blake2b(digest_size=12)
            h.update(self.table.tobytes())
            h.update(np.float64([self.vmin, self.vmax]).tobytes())
            v = h.hexdigest()
            object.__setattr__(self, "_version", v)
        return v

    @property
    def nbytes(self) -> int:
        return self.table.nbytes

    def opacity_corrected(self, dt: float) -> "TransferFunction1D":
        """This transfer function with its opacities corrected for step
        ``dt``: every alpha entry becomes ``1 − (1 − min(α, 0.9999))^dt``
        (float64 ``math.pow``, one call per entry, rounded to float32);
        ``dt == 1`` gives the clipped table itself.  Colours, domain and
        resolution are unchanged, so :meth:`table_coord` agrees between
        the two.  Cached per ``(version, dt)``.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        cache = self.__dict__.setdefault("_corrected", {})
        key = (self.version, float(dt))
        tf = cache.get(key)
        if tf is None:
            table = self.table.copy()
            alpha = np.minimum(table[:, 3], np.float32(0.9999))
            if dt != 1.0:
                alpha = np.array(
                    [1.0 - math.pow(1.0 - float(a), float(dt)) for a in alpha],
                    dtype=np.float32,
                )
            table[:, 3] = alpha
            tf = cache[key] = TransferFunction1D(table, self.vmin, self.vmax)
        return tf

    def table_coord(self, values: np.ndarray) -> np.ndarray:
        """Scalar → clamped fractional table coordinate ``u ∈ [0, N−1]``.

        Float32 (the input is cast first) with a fast path for the
        common unit domain ``[0, 1]`` (no rescale).  The ray-cast kernel uses ``u`` both for its
        exact empty-space test and for :meth:`lookup_from_u`.
        """
        v = np.asarray(values, dtype=np.float32)
        if self.vmin != 0.0 or self.vmax != 1.0:
            v = (v - np.float32(self.vmin)) * np.float32(
                1.0 / (self.vmax - self.vmin)
            )
        return np.clip(v, 0.0, 1.0) * np.float32(self.resolution - 1)

    def lookup_from_u(self, u: np.ndarray) -> np.ndarray:
        """Linearly-interpolated RGBA at table coordinates ``u`` (see
        :meth:`table_coord`), float32 like the reduced-precision CUDA
        texture unit this models."""
        i0 = u.astype(np.int32)  # u >= 0, so truncation is floor
        i0 = np.minimum(i0, self.resolution - 2)
        f = (u - i0.astype(np.float32))[..., None]
        return np.take(self.table, i0, axis=0) + f * np.take(
            self._diff, i0, axis=0
        )

    def opacity_threshold_value(self, alpha_eps: float = 1e-3) -> float:
        """Smallest scalar whose opacity exceeds ``alpha_eps``.

        Used by the empty-space model: voxels below this value generate
        discarded fragments.
        """
        alphas = self.table[:, 3]
        hit = np.nonzero(alphas > alpha_eps)[0]
        if len(hit) == 0:
            return self.vmax
        frac = hit[0] / (self.resolution - 1)
        return self.vmin + frac * (self.vmax - self.vmin)


def _ramp(n: int, stops: Sequence[tuple[float, tuple[float, float, float, float]]]) -> np.ndarray:
    """Piecewise-linear RGBA ramp through (position, rgba) stops."""
    xs = np.array([s[0] for s in stops])
    cs = np.array([s[1] for s in stops])
    if np.any(np.diff(xs) <= 0):
        raise ValueError("stops must be strictly increasing")
    u = np.linspace(0.0, 1.0, n)
    out = np.empty((n, 4), dtype=np.float32)
    for c in range(4):
        out[:, c] = np.interp(u, xs, cs[:, c])
    return out


def default_tf(resolution: int = 256) -> TransferFunction1D:
    """General-purpose blue→white→orange ramp with increasing opacity."""
    stops = [
        (0.00, (0.0, 0.0, 0.0, 0.0)),
        (0.08, (0.1, 0.1, 0.4, 0.0)),
        (0.30, (0.2, 0.4, 0.9, 0.15)),
        (0.55, (0.9, 0.9, 0.9, 0.35)),
        (0.80, (1.0, 0.6, 0.2, 0.7)),
        (1.00, (1.0, 0.3, 0.1, 0.9)),
    ]
    return TransferFunction1D(_ramp(resolution, stops))


def bone_tf(resolution: int = 256) -> TransferFunction1D:
    """CT-style: soft tissue translucent, bone bright and opaque (Skull)."""
    stops = [
        (0.00, (0.0, 0.0, 0.0, 0.0)),
        (0.15, (0.4, 0.2, 0.1, 0.02)),
        (0.40, (0.8, 0.6, 0.4, 0.10)),
        (0.70, (1.0, 0.95, 0.85, 0.60)),
        (1.00, (1.0, 1.0, 1.0, 0.95)),
    ]
    return TransferFunction1D(_ramp(resolution, stops))


def fire_tf(resolution: int = 256) -> TransferFunction1D:
    """Black-body ramp for the Supernova/Plume datasets."""
    stops = [
        (0.00, (0.0, 0.0, 0.0, 0.0)),
        (0.20, (0.4, 0.0, 0.0, 0.05)),
        (0.45, (0.9, 0.2, 0.0, 0.20)),
        (0.70, (1.0, 0.7, 0.1, 0.50)),
        (1.00, (1.0, 1.0, 0.8, 0.85)),
    ]
    return TransferFunction1D(_ramp(resolution, stops))


def grayscale_tf(resolution: int = 256, max_alpha: float = 0.8) -> TransferFunction1D:
    """Linear grayscale; handy for tests because lookup(v) is analytic."""
    u = np.linspace(0.0, 1.0, resolution, dtype=np.float32)
    table = np.stack([u, u, u, u * max_alpha], axis=1)
    return TransferFunction1D(table)
