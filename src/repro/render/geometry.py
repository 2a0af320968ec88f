"""Ray/box geometry.

Everything is vectorised over rays: the ray-cast "kernel" processes one
brick's whole pixel footprint as NumPy arrays, which is the CPU analogue
of the paper's 16×16-thread CUDA blocks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ray_box_intersect",
    "box_contains",
    "box_intersect_f32",
    "dual_box_intersect_f32",
]


def ray_box_intersect(
    origins: np.ndarray,
    directions: np.ndarray,
    box_lo: np.ndarray,
    box_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slab-method intersection of N rays with one AABB.

    Parameters
    ----------
    origins, directions:
        ``(N, 3)`` ray origins and (not necessarily unit) directions.
    box_lo, box_hi:
        ``(3,)`` box corners, ``lo < hi`` componentwise.

    Returns
    -------
    (t_near, t_far, hit):
        Entry/exit parameters and a boolean hit mask.  ``t_near`` is
        clamped to 0 so rays starting inside the box enter at t=0.  All
        rays the paper's kernel would "immediately discard" have
        ``hit=False``.
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if origins.ndim != 2 or origins.shape[1] != 3:
        raise ValueError(f"origins must be (N,3), got {origins.shape}")
    if directions.shape != origins.shape:
        raise ValueError("origins/directions shape mismatch")
    box_lo = np.asarray(box_lo, dtype=np.float64)
    box_hi = np.asarray(box_hi, dtype=np.float64)
    if np.any(box_hi <= box_lo):
        raise ValueError(f"degenerate box {box_lo}..{box_hi}")

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / directions
        t1 = (box_lo[None, :] - origins) * inv
        t2 = (box_hi[None, :] - origins) * inv
    t_lo = np.minimum(t1, t2)
    t_hi = np.maximum(t1, t2)
    # Where a direction component is 0, the ray is parallel to that slab:
    # inside → (-inf, +inf), outside → empty interval.  Applied after the
    # min/max so the empty interval (+inf, -inf) is not re-ordered, and so
    # 0·inf NaNs from origins on a slab face are overwritten.
    parallel = directions == 0.0
    if np.any(parallel):
        inside = (origins >= box_lo[None, :]) & (origins <= box_hi[None, :])
        t_lo = np.where(parallel, np.where(inside, -np.inf, np.inf), t_lo)
        t_hi = np.where(parallel, np.where(inside, np.inf, -np.inf), t_hi)
    t_near = t_lo.max(axis=1)
    t_far = t_hi.min(axis=1)
    hit = (t_far >= t_near) & (t_far >= 0.0)
    t_near = np.maximum(t_near, 0.0)
    return t_near, t_far, hit


def box_intersect_f32(
    rel_lo: np.ndarray, rel_hi: np.ndarray, dirs: np.ndarray, inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slab test of shared-origin float32 rays against AABBs.

    ``rel_lo``/``rel_hi`` are the box corners relative to the eye —
    ``(3,)`` for one box all rays test, or ``(N, 3)`` for a box of its
    own per ray (a fused launch tests every ray against its brick) —
    and ``inv`` the reciprocal of ``dirs`` (``(N, 3)``).  Face t-values
    are ``(face − eye_axis) · inv_axis`` — bitwise identical for the
    shared face of two adjacent bricks, which is what lets the kernel
    carve exact per-ray sample intervals out of these numbers.

    The three slabs fold column by column (x, then y, then z — the order
    a row-wise ``max(axis=1)`` visits them, so the result is bitwise the
    same) with ``np.maximum``/``np.minimum``: one contiguous pass per
    axis instead of N length-3 reductions.

    Returns ``(t_near, t_far, hit)`` with ``t_near`` clamped to 0 (rays
    starting inside enter at t=0).
    """
    inf = np.float32(np.inf)
    tn = tf = None
    for a in range(3):
        lo, hi = rel_lo[..., a], rel_hi[..., a]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t1 = lo * inv[:, a]
            t2 = hi * inv[:, a]
        lo_t = np.minimum(t1, t2)
        hi_t = np.maximum(t1, t2)
        parallel = dirs[:, a] == 0.0
        if parallel.any():
            # Parallel to this slab: inside -> (-inf, +inf), outside ->
            # empty.  Applied after the min/max so the empty interval is
            # not re-ordered and 0*inf NaNs are overwritten.
            inside = (lo <= 0.0) & (hi >= 0.0)
            lo_t = np.where(parallel, np.where(inside, -inf, inf), lo_t)
            hi_t = np.where(parallel, np.where(inside, inf, -inf), hi_t)
        tn = lo_t if tn is None else np.maximum(tn, lo_t)
        tf = hi_t if tf is None else np.minimum(tf, hi_t)
    hit = (tf >= tn) & (tf >= 0.0)
    np.maximum(tn, np.float32(0.0), out=tn)
    return tn, tf, hit


def dual_box_intersect_f32(
    eye: np.ndarray,
    dirs: np.ndarray,
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Slab intersection of shared-origin rays with two AABBs, float32.

    Two :func:`box_intersect_f32` tests sharing the reciprocal
    directions and the float32 eye.  The ray-cast kernel itself tests
    a launch's rays against the whole-volume box and each against its
    own brick's box; this pairing is the reference form of the same
    arithmetic.

    Returns ``(tn_a, tf_a, hit_a, tn_b, tf_b, hit_b)``.
    """
    d = np.asarray(dirs, dtype=np.float32)
    eye = np.asarray(eye, dtype=np.float32)
    rel_lo_a = np.asarray(lo_a, dtype=np.float32) - eye
    rel_hi_a = np.asarray(hi_a, dtype=np.float32) - eye
    rel_lo_b = np.asarray(lo_b, dtype=np.float32) - eye
    rel_hi_b = np.asarray(hi_b, dtype=np.float32) - eye
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.float32(1.0) / d
    tn_a, tf_a, hit_a = box_intersect_f32(rel_lo_a, rel_hi_a, d, inv)
    # A brick spanning the whole volume (reference renders, single-brick
    # grids) makes the second test a mirror of the first.
    if np.array_equal(rel_lo_a, rel_lo_b) and np.array_equal(rel_hi_a, rel_hi_b):
        return tn_a, tf_a, hit_a, tn_a, tf_a, hit_a
    tn_b, tf_b, hit_b = box_intersect_f32(rel_lo_b, rel_hi_b, d, inv)
    return tn_a, tf_a, hit_a, tn_b, tf_b, hit_b


def box_contains(
    points: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray
) -> np.ndarray:
    """Half-open containment test ``lo ≤ p < hi``, vectorised over points.

    The half-open convention is what makes brick cores partition the
    volume exactly: a sample landing on a shared face belongs to exactly
    one brick.
    """
    points = np.asarray(points)
    lo = np.asarray(box_lo)
    hi = np.asarray(box_hi)
    return np.all((points >= lo) & (points < hi), axis=-1)
