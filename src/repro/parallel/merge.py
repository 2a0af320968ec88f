"""Shuffle-side merge: reassemble per-partition runs, sort, reduce.

Workers return, for every chunk, one fragment run per reducer partition
(the Partition stage's bucketing).  The Sort + Reduce half —
:func:`~repro.core.executors.merge_partition_runs` — is the *same
function* :class:`~repro.core.executors.InProcessExecutor` runs: it
concatenates each partition's runs **in chunk order** (not completion
order) and applies one θ(n) counting sort + one segmented-scan reduce
over all the partitions it is given, which is what makes the whole pool
bitwise deterministic regardless of worker scheduling.  Under ``reduce_mode="parent"`` the parent executes
it over every partition; under ``reduce_mode="worker"`` each worker
executes the identical function over the partitions it owns (via
:class:`~repro.core.executors.PartitionReduceSpec`), so the two
placements cannot diverge.  This module adds the pool-specific piece:
recovering per-reducer runs from the concatenated byte stream a worker
pushed through its ring.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.executors import merge_partition_runs

__all__ = ["split_runs", "merge_partition_runs"]


def split_runs(
    pairs: np.ndarray, routed: Sequence[int]
) -> list[np.ndarray]:
    """Split a chunk's concatenated partition stream back into runs.

    ``pairs`` holds the per-reducer runs back to back in reducer order;
    ``routed`` gives each run's length (the worker's routing counters).
    """
    if int(sum(routed)) != len(pairs):
        raise ValueError(
            f"routing counters sum to {int(sum(routed))} but stream has "
            f"{len(pairs)} pairs"
        )
    bounds = np.cumsum(np.asarray(routed, dtype=np.int64))[:-1]
    return np.split(pairs, bounds)
