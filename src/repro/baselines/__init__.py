"""Comparators: CPU cluster (ParaView-like) and binary-swap compositing
(Ma et al. '94)."""

from .binary_swap import SwapCost, binary_swap_time
from .cpu_cluster import (
    PARAVIEW_REPORTED_VPS,
    CpuClusterResult,
    run_cpu_cluster_baseline,
)

__all__ = [
    "CpuClusterResult",
    "PARAVIEW_REPORTED_VPS",
    "SwapCost",
    "binary_swap_time",
    "run_cpu_cluster_baseline",
]
