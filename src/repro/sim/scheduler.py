"""The simulated job scheduler — where the paper's overlap happens.

This module turns a list of :class:`~repro.core.executors.MapWork` items
(one per chunk, with all work counters known) into discrete-event
processes on a :class:`~repro.sim.node.ClusterRuntime`:

* each GPU runs a mapper process: (disk read) → synchronous texture
  upload → ray-cast kernel → asynchronous fragment download → host
  partition → asynchronous direct-sends to reducer nodes, immediately
  starting the next chunk while sends drain;
* the **map phase** ends when every mapper is done *and* every message
  has been delivered ("once all Mappers have finished and all data has
  been routed to the proper Reducer");
* each reducer then sorts its received pairs (CPU counting sort, or GPU
  upload+kernel+download above the auto cutoff) — the **sort phase**;
* each reducer composites (CPU by default, per the paper's empirical
  choice) — the **reduce phase**.

Reducer ``r`` lives on the node hosting GPU ``r``, so with four GPUs per
node four reduce tasks contend for the node's four cores, exactly the
contention structure of the AC testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.executors import MapWork
from ..core.job import JobConfig
from . import trace as T
from .engine import AllOf, Event
from .node import ClusterRuntime, ClusterSpec
from .stream import split_message_sizes
from .trace import StageBreakdown

__all__ = ["SimClusterExecutor", "SimOutcome", "run_simulated_job"]


@dataclass
class SimOutcome:
    """Timing results of one simulated job."""

    breakdown: StageBreakdown
    total_runtime: float
    pairs_per_reducer: np.ndarray
    bytes_internode: int
    bytes_intranode: int
    n_messages: int
    sort_device: str
    map_wall: float = 0.0
    sort_wall: float = 0.0
    reduce_wall: float = 0.0
    bytes_uploaded: int = 0  # H2D chunk payloads
    bytes_downloaded: int = 0  # D2H emitted pairs
    gpu_utilization: float = 0.0  # mean busy fraction of GPU engines


def _gpu_node(cluster: ClusterRuntime, gpu_index: int) -> int:
    return cluster.gpus[gpu_index].node.index


def run_simulated_job(
    cluster: ClusterRuntime,
    works: list[MapWork],
    pair_nbytes: int,
    config: Optional[JobConfig] = None,
    reduce_output_bytes_per_key: int = 16,
    owned_keys_per_reducer: Optional[np.ndarray] = None,
) -> SimOutcome:
    """Run the four-stage pipeline on the simulated cluster.

    ``owned_keys_per_reducer`` sizes the GPU-reduce result download; it
    defaults to zero (the paper leaves final pixels wherever the reducer
    ran and excludes stitching from timings).
    """
    if config is None:
        config = JobConfig()
    env = cluster.env
    trace = cluster.trace
    n_reducers = len(works[0].pairs_to_reducer) if works else cluster.gpu_count
    if any(len(w.pairs_to_reducer) != n_reducers for w in works):
        raise ValueError("inconsistent reducer counts across works")
    for w in works:
        if not 0 <= w.gpu < cluster.gpu_count:
            raise ValueError(f"work {w.chunk_id} targets missing GPU {w.gpu}")
        spec = cluster.gpus[w.gpu].spec
        if w.upload_bytes > spec.vram_bytes:
            raise MemoryError(
                f"chunk {w.chunk_id} ({w.upload_bytes} B) exceeds VRAM of gpu{w.gpu}"
            )
    if n_reducers > cluster.gpu_count:
        raise ValueError("more reducers than GPUs")

    # Traffic bookkeeping (filled by the processes).
    counters = {"internode": 0, "intranode": 0, "messages": 0}
    pairs_per_reducer = np.zeros(n_reducers, dtype=np.int64)
    for w in works:
        pairs_per_reducer += w.pairs_to_reducer

    trace.mark("start", env.now)
    send_events: list[Event] = []

    def send_proc(src_node: int, dst_node: int, nbytes: int):
        """One message: sender-side staging, the wire, receiver-side append."""
        sender = cluster.nodes[src_node]
        receiver = cluster.nodes[dst_node]
        yield env.process(
            sender.cpu_work(sender.spec.cpu.message_handling_overhead, T.CAT_HOST)
        )
        yield env.process(cluster.send(src_node, dst_node, nbytes))
        yield env.process(
            receiver.cpu_work(receiver.spec.cpu.message_handling_overhead, T.CAT_HOST)
        )

    def mapper_proc(gpu_index: int, my_works: list[MapWork]):
        gpu = cluster.gpus[gpu_index]
        node = gpu.node
        src_node = node.index
        for w in my_works:
            if w.read_from_disk and config.include_disk:
                yield env.process(node.read_disk(w.upload_bytes))
            kernel_time = gpu.spec.raycast_time(w.n_rays, w.n_samples)
            if w.upload_bytes == 0:
                # Brick already resident on the GPU (interactive frame
                # sequences re-render without re-uploading).
                pass
            elif config.async_upload:
                # §7 mode: linear-buffer copy overlaps the engine, but the
                # kernel filters manually in shared memory.
                yield env.process(gpu.upload_async(w.upload_bytes))
                kernel_time *= gpu.spec.manual_filter_slowdown
            else:
                yield env.process(
                    gpu.upload_texture(
                        w.upload_bytes, gpu.spec.texture_setup_overhead
                    )
                )
            if config.zero_copy_fragments:
                # §7 mode: pairs stream straight to host-mapped memory —
                # no D2H step, but emission pays the 0-copy write path.
                kernel_time += (
                    w.pairs_emitted * pair_nbytes / gpu.spec.zero_copy_bandwidth
                )
                yield env.process(gpu.run_kernel(kernel_time))
            else:
                yield env.process(gpu.run_kernel(kernel_time))
                yield env.process(gpu.download(w.pairs_emitted * pair_nbytes))
            # Host-side partition of the emitted pairs (modulo + binning +
            # placeholder compaction into pinned send buffers).
            yield env.process(
                node.cpu_work(
                    node.spec.cpu.task_overhead
                    + node.spec.cpu.partition_time(w.pairs_emitted),
                    T.CAT_PARTITION,
                )
            )
            # Direct-send: one message stream per *reducer process* (the
            # paper's Y−1 communication requests).  Pairs for reducers on
            # this node cost a memcpy; remote ones cross the NIC in
            # threshold-sized messages.  Sends are spawned, not awaited —
            # the mapper moves on to its next chunk (overlap).
            for r in range(n_reducers):
                n_pairs = int(w.pairs_to_reducer[r])
                if n_pairs == 0:
                    continue
                dst_node = _gpu_node(cluster, r)
                for msg_pairs in split_message_sizes(
                    n_pairs, config.send_threshold_pairs
                ):
                    nbytes = msg_pairs * pair_nbytes
                    counters["messages"] += 1
                    if dst_node == src_node:
                        counters["intranode"] += nbytes
                    else:
                        counters["internode"] += nbytes
                    send_events.append(
                        env.process(send_proc(src_node, dst_node, nbytes))
                    )

    by_gpu: dict[int, list[MapWork]] = {}
    for w in works:
        by_gpu.setdefault(w.gpu, []).append(w)
    mapper_events = [
        env.process(mapper_proc(g, ws), name=f"mapper-gpu{g}")
        for g, ws in sorted(by_gpu.items())
    ]

    outcome = SimOutcome(
        breakdown=StageBreakdown(),
        total_runtime=0.0,
        pairs_per_reducer=pairs_per_reducer,
        bytes_internode=0,
        bytes_intranode=0,
        n_messages=0,
        sort_device="cpu",
    )

    def coordinator():
        # --- map phase: mappers finished AND all sends delivered --------
        yield AllOf(env, mapper_events)
        # send_events keeps growing while mappers run; after mappers are
        # done the list is final.
        if send_events:
            yield AllOf(env, send_events)
        trace.mark("map_phase_end", env.now)

        # --- sort phase -----------------------------------------------------
        # Device choice per reducer, "depending on the amount of data"
        # (paper §3.1.2); the reported device is the busiest reducer's.
        busiest = int(pairs_per_reducer.max(initial=0))
        outcome.sort_device = config.sort_device(busiest)
        sort_procs = []
        for r in range(n_reducers):
            n = int(pairs_per_reducer[r])
            if n == 0:
                continue
            gpu = cluster.gpus[r]
            node = gpu.node
            if config.sort_device(n) == "gpu":
                sort_procs.append(
                    env.process(_gpu_sort_proc(cluster, r, n, pair_nbytes))
                )
            else:
                sort_procs.append(
                    env.process(
                        node.cpu_work(
                            node.spec.cpu.task_overhead
                            + node.spec.cpu.counting_sort_time(n),
                            T.CAT_SORT,
                        )
                    )
                )
        if sort_procs:
            yield AllOf(env, sort_procs)
        trace.mark("sort_phase_end", env.now)

        # --- reduce phase -----------------------------------------------------
        reduce_procs = []
        for r in range(n_reducers):
            n = int(pairs_per_reducer[r])
            if n == 0:
                continue
            gpu = cluster.gpus[r]
            node = gpu.node
            if config.reduce_on == "gpu":
                out_bytes = 0
                if owned_keys_per_reducer is not None:
                    out_bytes = (
                        int(owned_keys_per_reducer[r]) * reduce_output_bytes_per_key
                    )
                reduce_procs.append(
                    env.process(_gpu_reduce_proc(cluster, r, n, pair_nbytes, out_bytes))
                )
            else:
                reduce_procs.append(
                    env.process(
                        node.cpu_work(
                            node.spec.cpu.task_overhead
                            + node.spec.cpu.composite_time(
                                n, threads=config.reduce_threads
                            ),
                            T.CAT_REDUCE,
                            threads=config.reduce_threads,
                        )
                    )
                )
        if reduce_procs:
            yield AllOf(env, reduce_procs)
        trace.mark("reduce_phase_end", env.now)

    def _gpu_sort_proc(cluster, r, n_pairs, pair_nbytes):
        """GPU sort: host staging + buffer setup, pairs up, multi-kernel
        counting sort, pairs back."""
        gpu = cluster.gpus[r]
        node = gpu.node
        t0 = env.now
        yield env.process(node.cpu_work(node.spec.cpu.task_overhead, T.CAT_HOST))
        yield env.timeout(gpu.spec.task_setup_overhead)
        yield env.process(gpu.upload_texture(n_pairs * pair_nbytes))
        yield env.process(gpu.run_kernel(gpu.spec.sort_time(n_pairs), T.CAT_SORT))
        yield env.process(gpu.download(n_pairs * pair_nbytes))
        trace.record(T.CAT_SORT, f"gpu{r}:pipeline", t0, env.now)

    def _gpu_reduce_proc(cluster, r, n_pairs, pair_nbytes, out_bytes):
        """GPU reduce: host staging, per-pixel compositing kernels, result D2H."""
        gpu = cluster.gpus[r]
        node = gpu.node
        t0 = env.now
        yield env.process(node.cpu_work(node.spec.cpu.task_overhead, T.CAT_HOST))
        yield env.timeout(gpu.spec.task_setup_overhead)
        yield env.process(gpu.run_kernel(gpu.spec.composite_time(n_pairs), T.CAT_REDUCE))
        if out_bytes:
            yield env.process(gpu.download(out_bytes))
        trace.record(T.CAT_REDUCE, f"gpu{r}:pipeline", t0, env.now)

    env.process(coordinator(), name="coordinator")
    env.run()

    outcome.breakdown = StageBreakdown.from_trace(trace)
    outcome.total_runtime = trace.marks["reduce_phase_end"] - trace.marks["start"]
    outcome.bytes_internode = counters["internode"]
    outcome.bytes_intranode = counters["intranode"]
    outcome.n_messages = counters["messages"]
    outcome.map_wall = trace.marks["map_phase_end"] - trace.marks["start"]
    outcome.sort_wall = trace.marks["sort_phase_end"] - trace.marks["map_phase_end"]
    outcome.reduce_wall = trace.marks["reduce_phase_end"] - trace.marks["sort_phase_end"]
    outcome.bytes_uploaded = trace.bytes_moved(T.CAT_H2D) + trace.bytes_moved(
        T.CAT_H2D_ASYNC
    )
    outcome.bytes_downloaded = trace.bytes_moved(T.CAT_D2H)
    if outcome.total_runtime > 0 and cluster.gpu_count:
        busy = sum(
            g.engine.busy_time() for g in cluster.gpus
        )
        outcome.gpu_utilization = busy / (cluster.gpu_count * outcome.total_runtime)
    return outcome


class SimClusterExecutor:
    """Replay :class:`MapWork` items on a simulated cluster for timing."""

    def __init__(self, cluster_spec: ClusterSpec, config: Optional[JobConfig] = None):
        self.cluster_spec = cluster_spec
        self.config = config if config is not None else JobConfig()

    def execute(
        self,
        works: Sequence[MapWork],
        pair_nbytes: int,
        owned_keys_per_reducer: Optional[np.ndarray] = None,
    ) -> tuple[SimOutcome, ClusterRuntime]:
        """Run the timing simulation; returns the outcome and the runtime
        (whose trace callers can inspect for Gantt-level detail)."""
        cluster = ClusterRuntime(self.cluster_spec)
        outcome = run_simulated_job(
            cluster,
            list(works),
            pair_nbytes=pair_nbytes,
            config=self.config,
            owned_keys_per_reducer=owned_keys_per_reducer,
        )
        return outcome, cluster
