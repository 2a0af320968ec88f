"""Performance analysis: figures of merit and the §6.3 bottleneck study."""

from .bottleneck import (
    CommComputeSplit,
    compute_vs_communication,
    find_crossover,
    find_sweet_spot,
)
from .efficiency import (
    ScalingPoint,
    fps,
    parallel_efficiency,
    scaling_series,
    speedup,
    voxels_per_second,
)

__all__ = [
    "CommComputeSplit",
    "ScalingPoint",
    "compute_vs_communication",
    "find_crossover",
    "find_sweet_spot",
    "fps",
    "parallel_efficiency",
    "scaling_series",
    "speedup",
    "voxels_per_second",
]
