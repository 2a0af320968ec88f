"""The paper's contribution: a multi-GPU MapReduce library for rendering.

Stages (paper §3.1): **Map** (ray-cast a chunk), **Partition** (modulo
routing + placeholder discard), **Sort** (θ(n) counting sort), **Reduce**
(per-key fold).  The library streams intermediate pairs between stages —
no disk shuffle.  The simulated scheduler that overlaps disk, PCIe,
kernel and network activity is :mod:`repro.sim.scheduler`; it imports
this package, never the other way round.
"""

from .api import Combiner, Mapper, MapOutput, Partitioner, Reducer
from .chunk import Chunk
from .executors import InProcessExecutor, InProcessResult, MapWork, ShuffleSpec
from .job import JobConfig, MapReduceSpec
from .keyvalue import PLACEHOLDER, KVSpec, validate_pairs
from .partition import BlockPartitioner, RoundRobinPartitioner, TiledPartitioner
from .sort import (
    SortResult,
    counting_sort_pairs,
    run_length_groups,
    stable_counting_order,
)
from .stats import JobStats

__all__ = [
    "BlockPartitioner",
    "Chunk",
    "Combiner",
    "InProcessExecutor",
    "InProcessResult",
    "JobConfig",
    "JobStats",
    "KVSpec",
    "MapOutput",
    "MapReduceSpec",
    "MapWork",
    "Mapper",
    "PLACEHOLDER",
    "Partitioner",
    "Reducer",
    "RoundRobinPartitioner",
    "ShuffleSpec",
    "SortResult",
    "TiledPartitioner",
    "counting_sort_pairs",
    "run_length_groups",
    "stable_counting_order",
    "validate_pairs",
]
