"""Host CPU model.

The paper keeps two tasks on the CPU deliberately: the θ(n) counting sort
when fragment counts are small, and the Reduce-phase compositing (found
empirically faster on the CPU because of the per-pixel depth sort).  The
constants model a 2010-era quad-core host.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CPUSpec"]


@dataclass(frozen=True)
class CPUSpec:
    """Throughput model for one compute node's host CPU.

    Attributes
    ----------
    cores:
        Physical cores (the AC nodes were quad-core).
    sort_keys_per_sec:
        Counting-sort throughput per core (keys/s).
    composite_frags_per_sec:
        Front-to-back compositing throughput per core, including the
        ascending-depth sort of each pixel's fragment list.
    partition_pairs_per_sec:
        Modulo-and-bin throughput per core, including the placeholder
        compaction pass and staging copies into pinned send buffers.
    memcpy_bandwidth:
        Host-side staging copy bandwidth, bytes/s.
    task_overhead:
        Fixed seconds to launch one host-side task (thread wake-up,
        MPI bookkeeping, allocation) — charged per partition/sort/reduce
        task.  2010-era software stacks spend milliseconds here, which is
        what keeps small volumes from scaling past ~8 GPUs (Fig. 3).
    message_handling_overhead:
        Fixed CPU seconds to stage one network message (pack at the
        sender, unpack/append at the receiver).
    """

    cores: int = 4
    sort_keys_per_sec: float = 40e6
    composite_frags_per_sec: float = 2.5e6
    partition_pairs_per_sec: float = 80e6
    memcpy_bandwidth: float = 6e9
    task_overhead: float = 6e-3
    message_handling_overhead: float = 1.8e-3

    def counting_sort_time(self, n_pairs: int, threads: int = 1) -> float:
        """Seconds for a θ(n) counting sort of ``n_pairs`` on ``threads`` cores."""
        threads = max(1, min(threads, self.cores))
        return n_pairs / (self.sort_keys_per_sec * threads)

    def composite_time(self, n_fragments: int, threads: int = 1) -> float:
        """Seconds to depth-sort and composite ``n_fragments`` on the CPU."""
        threads = max(1, min(threads, self.cores))
        return n_fragments / (self.composite_frags_per_sec * threads)

    def partition_time(self, n_pairs: int, threads: int = 1) -> float:
        """Seconds to bin ``n_pairs`` pairs into per-reducer buckets."""
        threads = max(1, min(threads, self.cores))
        return n_pairs / (self.partition_pairs_per_sec * threads)

    def memcpy_time(self, nbytes: int) -> float:
        """Seconds for a host staging copy of ``nbytes``."""
        return nbytes / self.memcpy_bandwidth
