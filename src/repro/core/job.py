"""Job specification and configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .api import Combiner, Mapper, Partitioner, Reducer
from .keyvalue import KVSpec

__all__ = ["MapReduceSpec", "JobConfig"]


@dataclass
class MapReduceSpec:
    """Everything that defines *what* a job computes (not where/when).

    ``max_key`` bounds the dense key space (image pixel count for the
    renderer); the counting sort and the reducers' owned-range math rely
    on it.
    """

    mapper: Mapper
    reducer: Reducer
    partitioner: Partitioner
    kv: KVSpec
    max_key: int
    combiner: Optional[Combiner] = None

    def __post_init__(self):
        if self.max_key < 0:
            raise ValueError("max_key must be non-negative")
        if self.partitioner.n_reducers < 1:
            raise ValueError("partitioner must have reducers")

    @property
    def n_reducers(self) -> int:
        return self.partitioner.n_reducers


@dataclass(frozen=True)
class JobConfig:
    """Knobs of a simulated job (:mod:`repro.sim.scheduler`); the
    functional executors read none of them.

    ``sort_on``/``reduce_on`` mirror the paper's device choices: sorting
    runs on CPU or GPU "depending on the amount of data" (``auto`` picks
    GPU above ``sort_gpu_cutoff`` pairs); compositing was "empirically
    ... quicker on the CPU", the default here.
    """

    send_threshold_pairs: int = 1 << 16
    sort_on: str = "auto"  # "cpu" | "gpu" | "auto"
    reduce_on: str = "cpu"  # "cpu" | "gpu"
    sort_gpu_cutoff: int = 1 << 17  # per-reducer pairs where GPU sort wins
    include_disk: bool = False  # charge disk reads in the map stream
    reduce_threads: int = 1  # CPU threads per reduce task
    # Future-work modes the paper proposes in §7:
    async_upload: bool = False  # linear-buffer uploads + manual filtering
    zero_copy_fragments: bool = False  # kernel writes pairs to host memory

    def __post_init__(self):
        if self.send_threshold_pairs < 1:
            raise ValueError("send_threshold_pairs must be positive")
        if self.sort_on not in ("cpu", "gpu", "auto"):
            raise ValueError(f"bad sort_on {self.sort_on!r}")
        if self.reduce_on not in ("cpu", "gpu"):
            raise ValueError(f"bad reduce_on {self.reduce_on!r}")
        if self.sort_gpu_cutoff < 0 or self.reduce_threads < 1:
            raise ValueError("bad cutoff/threads")

    def sort_device(self, n_pairs: int) -> str:
        """Resolve the sort device for a given data size."""
        if self.sort_on != "auto":
            return self.sort_on
        return "gpu" if n_pairs > self.sort_gpu_cutoff else "cpu"
