"""The combiner the paper deliberately left out.

§3.1: "we specifically omitted partial reduce/combine because it didn't
increase performance for our volume renderer."  The reason is
structural: within one brick, each pixel's ray emits at most **one**
fragment (the in-brick samples are already composited front-to-back
inside the kernel), so a per-chunk combiner never finds two pairs with
the same key to merge.  :class:`FragmentCombiner` implements the merge
anyway — correctly, by depth-ordered over — so the ablation benchmark
can demonstrate the zero-merge fact instead of asserting it.
"""

from __future__ import annotations

import numpy as np

from ..core.api import Combiner
from ..core.sort import _permute_records, run_length_groups
from ..render.compositing import fold_depth_runs
from ..render.fragments import (
    FRAGMENT_DTYPE,
    fragment_sort_order,
    make_fragments,
    rgba_view,
)

__all__ = ["FragmentCombiner"]


class FragmentCombiner(Combiner):
    """Depth-ordered per-key merge of fragments within one map output."""

    def __init__(self) -> None:
        self.pairs_in = 0
        self.pairs_out = 0

    def combine(self, pairs: np.ndarray) -> np.ndarray:
        self.pairs_in += len(pairs)
        if len(pairs) == 0:
            self.pairs_out += 0
            return pairs
        if pairs.dtype != FRAGMENT_DTYPE:
            raise TypeError("FragmentCombiner expects ray-fragment pairs")
        f = _permute_records(pairs, fragment_sort_order(pairs))
        keys, starts, counts = run_length_groups(f["pixel"])
        if np.all(counts == 1):
            # The common case the paper observed: nothing to merge.
            self.pairs_out += len(pairs)
            return pairs
        # Same segmented-scan fold the reducer and compositors use.
        out = fold_depth_runs(rgba_view(f), starts)
        depth = f["depth"][starts]
        merged = make_fragments(keys.astype(np.int32), depth, out)
        self.pairs_out += len(merged)
        return merged
