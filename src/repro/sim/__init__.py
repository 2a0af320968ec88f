"""Simulated multi-GPU cluster substrate.

The paper evaluates on real 2010 hardware (NCSA Accelerator Cluster,
Tesla S1070 GPUs, QDR InfiniBand).  This subpackage replaces that
hardware with a discrete-event simulation whose cost constants are
calibrated to the micro-costs the paper states (64³ brick ≈ 20 ms from
disk, <0.2 ms over PCIe, <2 ms fragment download, VRAM ≫ DRAM bandwidth),
so the *relative* stage costs — and hence every scaling trend in the
evaluation — are preserved.

The simulator imports the functional core (for
:class:`~repro.core.executors.MapWork` and
:class:`~repro.core.job.JobConfig`); nothing in the core imports the
simulator.
"""

from .cpu import CPUSpec
from .disk import DiskSpec
from .engine import AllOf, Environment, Event, Process, SimulationError, Timeout
from .gpu import GPUSpec
from .network import NetworkSpec
from .node import ClusterRuntime, ClusterSpec, GPUHandle, NodeRuntime, NodeSpec
from .pcie import PCIeSpec
from .presets import accelerator_cluster
from .resources import Link, Resource
from .scheduler import SimClusterExecutor, SimOutcome, run_simulated_job
from .trace import Span, StageBreakdown, Trace

__all__ = [
    "AllOf",
    "CPUSpec",
    "ClusterRuntime",
    "ClusterSpec",
    "DiskSpec",
    "Environment",
    "Event",
    "GPUHandle",
    "GPUSpec",
    "Link",
    "NetworkSpec",
    "NodeRuntime",
    "NodeSpec",
    "PCIeSpec",
    "Process",
    "Resource",
    "SimClusterExecutor",
    "SimOutcome",
    "SimulationError",
    "Span",
    "StageBreakdown",
    "Timeout",
    "Trace",
    "accelerator_cluster",
    "run_simulated_job",
]
