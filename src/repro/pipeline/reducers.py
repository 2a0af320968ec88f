"""Reduce-phase implementations.

:class:`CompositeReducer` is the paper's reducer: "all ray fragments for
a given pixel are ascending-depth sorted, composited, and blended
against the background color".  The required per-pixel depth sort is
exactly why the paper found CPU reduction faster than GPU — the counting
sort groups by *key* only, so depth ordering is the reducer's job.  Here
that ordering is the same comparison-free (pixel, depth) radix the
compositors use (:func:`~repro.render.fragments.fragment_sort_order`).

:class:`MaxReducer` pairs with the MIP mapper for the pluggability demo.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.api import Reducer
from ..core.sort import _permute_records, run_length_groups
from ..render.compositing import fold_depth_runs
from ..render.fragments import fragment_sort_order, rgba_view

__all__ = ["CompositeReducer", "MaxReducer"]


class CompositeReducer(Reducer):
    """Front-to-back depth compositing of pixel fragment groups.

    ``reduce_all`` expects fragment pairs sorted (stably) by the
    ``pixel`` key and returns ``(unique pixel keys, premultiplied RGBA
    rows)``.  Fragments may come from a peer process, so a NaN depth —
    the one value the radix and ``np.lexsort`` would order differently —
    is a ``ValueError``.
    """

    def __init__(self, background: Sequence[float] | None = None):
        # Background blending is deferred to stitching by default, per the
        # paper's phase separation; pass a colour to blend here instead.
        self.background = None if background is None else np.asarray(background, np.float32)

    def reduce_all(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(pairs) == 0:
            return np.empty(0, np.int64), np.zeros((0, 4), np.float32)
        if np.isnan(pairs["depth"]).any():
            raise ValueError("fragment with a NaN depth reached the reducer")
        # Ascending-depth order within each (already grouped) pixel run.
        f = _permute_records(pairs, fragment_sort_order(pairs))
        keys, starts, counts = run_length_groups(f["pixel"])
        # One segmented transmittance scan + one segmented sum replaces
        # the per-depth-rank blend loop.
        out = fold_depth_runs(rgba_view(f), starts)
        if self.background is not None:
            alpha = out[:, 3:4]
            out = out.copy()
            out[:, :3] += (1.0 - alpha) * self.background[None, :]
            out[:, 3] = 1.0
        return keys, out


class MaxReducer(Reducer):
    """Per-key maximum — the MIP fold."""

    def reduce_all(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(pairs) == 0:
            return np.empty(0, np.int64), np.zeros(0, np.float32)
        keys, starts, counts = run_length_groups(pairs["pixel"])
        out = np.maximum.reduceat(pairs["value"], starts)
        return keys, out.astype(np.float32)
