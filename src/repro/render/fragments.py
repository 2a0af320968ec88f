"""Ray fragments — the intermediate key-value pairs of the pipeline.

A fragment is the paper's emitted pair: **key** = 4-byte pixel index
(``y*width + x``), **value** = a fixed-size record ``(depth, r, g, b, a)``
holding the partial colour a ray accumulated inside one brick.  All
values are homogeneous 20-byte payloads (paper restriction #3); with the
key the wire size is 24 bytes per fragment.

Colour is stored *premultiplied by alpha*, which makes the front-to-back
over operator associative — the property that lets per-brick partial
rays composite in depth order to the exact single-pass result.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..core.sort import stable_counting_order

__all__ = [
    "FRAGMENT_DTYPE",
    "FRAGMENT_NBYTES",
    "PLACEHOLDER_KEY",
    "make_fragments",
    "fragment_sort_order",
    "rgba_view",
]

#: One emitted key-value pair: int32 key + 20-byte homogeneous value.
FRAGMENT_DTYPE = np.dtype(
    [
        ("pixel", np.int32),
        ("depth", np.float32),
        ("r", np.float32),
        ("g", np.float32),
        ("b", np.float32),
        ("a", np.float32),
    ]
)

FRAGMENT_NBYTES = FRAGMENT_DTYPE.itemsize  # 24

#: "If the thread computes a useless key-value pair, the kernel emits a
#: later-discarded place holder."  We use key −1.
PLACEHOLDER_KEY = np.int32(-1)


def make_fragments(
    pixel: np.ndarray, depth: np.ndarray, rgba: np.ndarray
) -> np.ndarray:
    """Pack parallel arrays into a fragment record array."""
    pixel = np.asarray(pixel)
    depth = np.asarray(depth)
    rgba = np.asarray(rgba)
    n = len(pixel)
    if depth.shape != (n,) or rgba.shape != (n, 4):
        raise ValueError(
            f"shape mismatch: pixel {pixel.shape}, depth {depth.shape}, rgba {rgba.shape}"
        )
    out = np.empty(n, dtype=FRAGMENT_DTYPE)
    out["pixel"] = pixel
    out["depth"] = depth
    out["r"] = rgba[:, 0]
    out["g"] = rgba[:, 1]
    out["b"] = rgba[:, 2]
    out["a"] = rgba[:, 3]
    return out


def _depth_rank_bits(depth: np.ndarray) -> np.ndarray:
    """Monotone uint32 image of float32 depths.

    Adding +0.0 first canonicalizes −0.0 to +0.0 so the two zeros
    compare equal (as ``np.lexsort`` treats them) instead of ordering
    by sign bit — equal-depth fragments must keep arrival order.
    """
    canon = np.asarray(depth, dtype=np.float32) + np.float32(0.0)
    bits = canon.view(np.uint32)
    neg = bits >> np.uint32(31)
    return np.where(neg.astype(bool), ~bits, bits ^ np.uint32(0x80000000))


def _pixel_depth_order(pix: np.ndarray, n_pixels: int, depth: np.ndarray) -> np.ndarray:
    """Stable (pixel, depth)-ascending permutation, θ(n).

    An LSD radix built from the Sort stage's digit order: the depth's
    monotone 32-bit image is the minor key (two 16-bit digits), the
    dense pixel index the major one (one digit up to 2¹⁶ pixels, two
    beyond).  Every pass is a stable counting sort, so the composition
    is the stable lexicographic order — ``np.lexsort((depth, pix))``
    without its comparisons.
    """
    by_depth = stable_counting_order(_depth_rank_bits(depth), 1 << 32)
    by_pixel = stable_counting_order(np.take(pix, by_depth), n_pixels)
    return np.take(by_depth, by_pixel)


def fragment_sort_order(fragments: np.ndarray) -> np.ndarray:
    """Indices sorting fragments by (pixel, depth) ascending.

    This is the canonical compositing order: group per pixel, front to
    back.  Stable, so equal-depth fragments keep arrival order
    (deterministic output), and θ(n): the (pixel, depth) radix over the
    pixel keys' own range.  It equals the ``np.lexsort((depth, pixel))``
    oracle for every depth but a NaN (a sign-bit-set NaN sorts first
    here, last there), which is why the reducer rejects NaN depths.
    """
    pix = fragments["pixel"]
    if len(pix) == 0:
        return np.empty(0, dtype=np.intp)
    lo = int(pix.min())
    return _pixel_depth_order(
        pix.astype(np.int64) - lo, int(pix.max()) - lo + 1, fragments["depth"]
    )


def rgba_view(fragments: np.ndarray) -> np.ndarray:
    """(N, 4) float32 read-only view of the colour fields, no copy.

    ``r, g, b, a`` are adjacent float32s in every record, so one row
    steps one record and one column steps four bytes.
    """
    if fragments.dtype != FRAGMENT_DTYPE:
        raise TypeError("expected fragment records")
    return as_strided(
        fragments["r"],
        shape=(len(fragments), 4),
        strides=(fragments.strides[0], 4),
        writeable=False,
    )
