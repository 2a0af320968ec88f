"""Shared-memory multiprocess brick execution — real parallel map/reduce.

The paper (Stuart et al., HPDC 2010) renders by fanning volume bricks
out to many GPUs: each GPU **Maps** its bricks with a ray-cast kernel,
**Partitions** the emitted ``(pixel, fragment)`` pairs by reducer,
exchanges them directly with the GPU that owns each partition, which
**Sorts** with a θ(n) counting sort and **Reduces** by depth-ordered
compositing — with brick uploads, kernels, and fragment downloads all
overlapped.  This package maps **one worker process per simulated
GPU** onto that design, over one data path:

=====================  ====================================================
paper stage            multiprocess realisation
=====================  ====================================================
brick upload (PCIe)    :mod:`~repro.parallel.shm` — chunk payloads and the
                       transfer-function table published once into a
                       shared-memory arena; workers take zero-copy views
                       (resident bricks: an orbit uploads the volume once)
Map + Partition        :mod:`~repro.parallel.worker` — each worker runs the
(per GPU)              ray-cast kernel and buckets fragments by reducer
                       partition, exactly the serial executor's code
GPU↔GPU fragment       :mod:`~repro.parallel.shuffle` — an N×N mesh of
exchange (the          SPSC shared-memory edge rings
interconnect)          (:mod:`~repro.parallel.ring`): each mapper writes a
                       partition's runs, tagged frame/chunk/partition,
                       straight into the owning worker's inbound edge; the
                       parent is a control plane and touches run bytes
                       only to relay a record too large for its edge.
Sort + Reduce          each worker Sort+Reduces the partitions it owns
                       (``partition % workers``) with the literal
                       :func:`~repro.core.executors.merge_partition_runs`
                       and ships back composited pixel spans; the parent
                       stitches
async overlap (§7)     ``pipeline_depth>1``: ``submit``/``collect`` keep
                       frames in flight so workers map+reduce frame *k+1*
                       while the parent stitches frame *k* (and next-frame
                       arenas, incl. out-of-core loads, publish off the
                       critical path)
=====================  ====================================================

:class:`SharedMemoryPoolExecutor` (:mod:`~repro.parallel.pool`) wires
these together behind the exact ``execute(spec, chunks, chunk_to_gpu)``
surface of :class:`~repro.core.executors.InProcessExecutor`, returning
bitwise-identical images and counters — worker scheduling never leaks
into the output because runs are merged in chunk order and every kernel
is deterministic.

Fault tolerance (:mod:`~repro.parallel.supervise`) is always on: a
process dying mid-frame (noticed at once: the parent waits on every
worker's process sentinel) or a wedged edge recycles the transport
epoch in place (the arena survives and is re-attached by name),
re-executes the in-flight frames bitwise-identically, and degrades
(shrink the pool, then fall back to the in-process executor) when
retries are exhausted.  Its timeouts, retry budget and backoff are
constants of :mod:`~repro.parallel.shuffle`, not settings.
:mod:`~repro.parallel.faults` is the deterministic fault-injection
harness (``fault_plan=`` / ``repro render --fault-plan``) that drives
crash, exit, and stall faults at exact (stage, worker, frame, chunk)
points.
"""

from .faults import FaultPlan, FaultRule
from .pool import (
    PendingFrame,
    SharedMemoryPoolExecutor,
    check_modes,
    default_pool_workers,
    usable_cores,
)
from .ring import RingTimeout, ShmRing
from .shm import ArenaSpec, ArenaView, ShmArena, shm_segment_exists
from .shuffle import WorkerMesh
from .supervise import PoolFailure, PoolSupervisor
from .worker import FrameContext, map_chunk_to_runs

__all__ = [
    "ArenaSpec",
    "ArenaView",
    "FaultPlan",
    "FaultRule",
    "FrameContext",
    "PendingFrame",
    "PoolFailure",
    "PoolSupervisor",
    "RingTimeout",
    "SharedMemoryPoolExecutor",
    "ShmArena",
    "ShmRing",
    "WorkerMesh",
    "check_modes",
    "default_pool_workers",
    "map_chunk_to_runs",
    "shm_segment_exists",
    "usable_cores",
]
