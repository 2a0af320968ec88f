"""Fragment compositing — the Reduce-phase math.

All colour is premultiplied alpha, so the *over* operator is associative
and partial per-brick rays can be combined in any grouping as long as
depth order is respected.  The paper composites "all ray fragments for a
given pixel ... ascending-depth sorted, composited, and blended against
the background color"; :func:`composite_fragments` is that operation,
vectorised across every pixel at once.

The workhorse is :func:`segmented_exclusive_cumprod`: with fragments
sorted by (pixel, depth), the transmittance in front of each fragment is
the exclusive running product of ``(1 − α)`` within its pixel's run, so
the whole image reduces to one segmented scan plus one segmented sum —
no per-depth-rank Python iteration.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.sort import stable_counting_order
from .fragments import FRAGMENT_DTYPE, rgba_view

__all__ = [
    "over",
    "composite_fragments",
    "composite_pixel_fragments",
    "blend_background",
    "fold_depth_runs",
    "group_ranks",
    "segmented_exclusive_cumprod",
]


def over(front: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Premultiplied front-to-back over: ``out = F + (1−αF)·B``."""
    front = np.asarray(front, dtype=np.float32)
    back = np.asarray(back, dtype=np.float32)
    a = front[..., 3:4]
    return front + (1.0 - a) * back


def group_ranks(sorted_keys: np.ndarray) -> np.ndarray:
    """Rank of each element within its run of equal keys (keys pre-sorted)."""
    n = len(sorted_keys)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    pos = np.arange(n)
    run_start = np.maximum.accumulate(np.where(starts, pos, 0))
    return pos - run_start


def segmented_exclusive_cumprod(
    values: np.ndarray, seg_start: np.ndarray, max_run: Optional[int] = None
) -> np.ndarray:
    """Exclusive running product of ``values`` within each segment.

    ``seg_start`` is a boolean mask flagging the first element of every
    segment (element 0 must be flagged).  Returns ``out`` with
    ``out[j] = Π values[i]`` over the elements ``i`` of ``j``'s segment
    that precede ``j`` (so 1.0 at each segment start).  ``max_run``, when
    the caller already knows an upper bound on the longest segment,
    skips one pass over the data.

    Implemented as a Hillis–Steele doubling scan: ``ceil(log2(max run))``
    vectorised passes, each a masked elementwise multiply — the GPU-style
    replacement for iterating depth ranks one at a time.  Zeros are fine
    (no division anywhere), which matters because a fully opaque fragment
    has ``1 − α = 0``.  This one scan serves both the Reduce-side
    compositors here and the ray-cast kernel's in-block fold.
    """
    values = np.asarray(values, dtype=np.float32)
    n = len(values)
    if n == 0:
        return values.copy()
    seg_start = np.asarray(seg_start, dtype=bool)
    # Shift values right by one inside each segment: an inclusive scan of
    # the shifted sequence is the exclusive scan of the original.
    p = np.empty(n, dtype=np.float32)
    p[0] = 1.0
    p[1:] = values[:-1]
    p[seg_start] = 1.0
    seg_id = np.cumsum(seg_start)
    if max_run is None:
        starts_idx = np.nonzero(seg_start)[0]
        max_run = int(np.diff(np.r_[starts_idx, n]).max())
    shift = 1
    while shift < max_run:
        same = seg_id[shift:] == seg_id[:-shift]
        p[shift:] = np.where(same, p[shift:] * p[:-shift], p[shift:])
        shift <<= 1
    return p


def fold_depth_runs(rgba: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Front-to-back *over* fold of depth-sorted runs → one RGBA per run.

    ``rgba`` rows must be grouped into runs (one per pixel) with depth
    ascending inside each; ``starts`` lists every run's first row index
    (``starts[0] == 0``).  One segmented transmittance scan plus one
    segmented sum — the shared Reduce-side fold used by the compositors,
    the reducer, and the combiner.
    """
    seg_start = np.zeros(len(rgba), dtype=bool)
    seg_start[starts] = True
    trans = segmented_exclusive_cumprod(1.0 - rgba[:, 3], seg_start)
    out = np.add.reduceat(trans[:, None] * rgba, starts, axis=0)
    return out.astype(np.float32, copy=False)


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


def composite_pixel_fragments(fragments: np.ndarray) -> np.ndarray:
    """Composite one pixel's fragments (ascending depth) → RGBA (premult)."""
    if fragments.dtype != FRAGMENT_DTYPE:
        raise TypeError("expected fragment records")
    if len(fragments) == 0:
        return np.zeros(4, dtype=np.float32)
    order = np.argsort(fragments["depth"], kind="stable")
    return fold_depth_runs(rgba_view(fragments[order]), np.array([0]))[0]


def composite_fragments(
    fragments: np.ndarray,
    n_pixels: int,
    pixel_base: int = 0,
) -> np.ndarray:
    """Depth-composite fragments into a flat premultiplied RGBA buffer.

    ``fragments['pixel']`` must lie in ``[pixel_base, pixel_base+n_pixels)``
    (a reducer owns a contiguous or strided key range; pass the dense
    buffer size it manages).  Returns ``(n_pixels, 4)`` float32.
    """
    out = np.zeros((n_pixels, 4), dtype=np.float32)
    if len(fragments) == 0:
        return out
    pix_raw = fragments["pixel"].astype(np.int32) - np.int32(pixel_base)
    if pix_raw.min() < 0 or pix_raw.max() >= n_pixels:
        raise ValueError("fragment pixel key outside reducer range")
    order = _pixel_depth_order(pix_raw, n_pixels, fragments["depth"])
    pix = np.take(pix_raw, order)
    rgba = np.empty((len(order), 4), dtype=np.float32)
    rgba[:, 0] = np.take(fragments["r"], order)
    rgba[:, 1] = np.take(fragments["g"], order)
    rgba[:, 2] = np.take(fragments["b"], order)
    rgba[:, 3] = np.take(fragments["a"], order)
    starts = np.nonzero(np.r_[True, pix[1:] != pix[:-1]])[0]
    out[pix[starts]] = fold_depth_runs(rgba, starts)
    return out


def blend_background(
    rgba: np.ndarray, background: Sequence[float] = (0.0, 0.0, 0.0)
) -> np.ndarray:
    """Blend premultiplied RGBA over an opaque background colour → RGB."""
    rgba = np.asarray(rgba, dtype=np.float32)
    bg = np.asarray(background, dtype=np.float32)
    if bg.shape != (3,):
        raise ValueError("background must be an RGB triple")
    alpha = rgba[..., 3:4]
    return rgba[..., :3] + (1.0 - alpha) * bg
