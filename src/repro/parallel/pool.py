"""The shared-memory multiprocess brick executor.

:class:`SharedMemoryPoolExecutor` runs a MapReduce job on a persistent
pool of worker processes — one worker per simulated GPU — exactly
mirroring the paper's per-GPU pipeline on real parallel hardware.  It
is a drop-in replacement for
:class:`~repro.core.executors.InProcessExecutor`: same
``execute(spec, chunks, chunk_to_gpu)`` signature, same
:class:`~repro.core.executors.InProcessResult` out, bitwise-identical
outputs and counters (see :mod:`repro.parallel.merge` for why).

Stage placement (``reduce_mode``):

* ``"parent"`` — workers run Map + Partition, the parent runs Sort +
  Reduce (the PR-2 layout).
* ``"worker"`` — the paper's full symmetry: each worker also runs Sort
  + Reduce for the reducer partitions it *owns* (the static
  :class:`~repro.core.executors.ShuffleSpec` ownership contract,
  ``partition % workers``), executing the literal
  :func:`~repro.core.executors.merge_partition_runs` over chunk-ordered
  runs and shipping back composited per-partition ``(keys, values)``
  spans instead of raw fragments.  The parent becomes a pure stitcher.
  Keys are disjoint per partition, so placement cannot change results.

Shuffle plane (``shuffle_mode``, see :mod:`repro.parallel.shuffle`):

* ``"parent"`` — :class:`~repro.parallel.shuffle.ParentRoutedShuffle`:
  run bytes go worker → uplink ring → parent (→ task queue → owning
  worker under worker-side reduce).  The parent is on the data path.
* ``"mesh"`` — :class:`~repro.parallel.shuffle.MeshShuffle`: an N×N
  mesh of SPSC shared-memory edge rings; each mapper writes a
  partition's runs *directly* into the owning reducer worker's inbound
  edge, tagged ``(frame, chunk, partition)``, the way the paper's GPUs
  exchange fragments over the interconnect.  The parent degrades to a
  pure **control plane** — publish, seal, stitch, teardown — and never
  touches a run byte (``JobStats.ring["parent_run_bytes"] == 0``).
  Materializes only under ``reduce_mode="worker"``; with a parent-side
  reduce every run's destination *is* the parent, so the uplink rings
  already are the direct path.
* ``"tcp"`` — :class:`~repro.parallel.shuffle.SocketShuffle`: the same
  direct worker↔worker exchange over byte streams (AF_UNIX on one
  host, loopback TCP otherwise; see
  :mod:`repro.parallel.socketplane`) — the off-box plane.  The parent
  holds **zero** data sockets; like the mesh it is a pure control
  plane with ``parent_run_bytes == 0``, and with a ``host_spec`` the
  workers can be placed on separate "hosts" where chunk payloads ride
  the task queues instead of the shm arena.  Materializes under
  ``reduce_mode="worker"`` only, like the mesh.
* ``"auto"`` (default) — ``$REPRO_SHUFFLE_MODE`` if set, else mesh
  exactly when the reduce runs on workers (never tcp: on one box the
  shm mesh strictly dominates; the socket plane is an explicit
  opt-in for the off-box regime).

Host placement (``host_spec``, tcp plane only): ``None`` (default)
puts every worker on host 0, where the shared-memory arena lives.  An
int ``n`` round-robins workers over ``n`` hosts; an explicit list
(``"0,0,1,1"`` on the CLI) pins each worker.  Workers on host 0 map
chunks zero-copy from the arena exactly as before; workers on other
hosts receive their chunk payloads *inline in the map message* and
their frame context with the transfer-function table inline — no
shared segment is assumed to exist between hosts, which is the whole
point.  Outputs are bitwise-identical regardless of placement.

Outputs are bitwise-identical across shuffle modes × reduce modes ×
pipeline depths *by construction*: both planes deliver the same
chunk-ordered, tag-restored runs into the same literal merge function.

Frame pipelining (``pipeline_depth``):

* :meth:`submit` / :meth:`collect` split ``execute`` into an async
  half-pair; up to ``pipeline_depth`` frames may be in flight at once.
  Submitting frame *k+1* first **seals** frame *k* (drains its map
  results and dispatches its reduce tasks), so per-worker task queues
  always order ``reduce(k)`` before ``map(k+1)`` — the workers
  map+reduce frame *k+1* while the parent assembles/stitches frame *k*,
  the multiprocess analogue of the paper's §7 async-upload overlap.
  Because the next frame's arena is published at submit time, an
  out-of-core orbit's chunk loads (disk → shared memory) are also
  prefetched off the previous frame's critical path.
  ``pipeline_depth=1`` (default) degenerates to fully synchronous
  per-frame execution.  Results are bitwise-independent of the depth:
  runs are merged in chunk order and reduced outputs are assembled in
  partition order, never in completion order.  Mesh records carry
  their frame seq, so pipelined frames can interleave on the wire
  without ever interleaving in a reduce (per-frame watermarks).

Data movement:

* **Downlink** (chunks to workers): every chunk payload and the
  transfer-function table are published once into a shared-memory
  arena (:mod:`repro.parallel.shm`); workers map them zero-copy.  The
  arena is fingerprinted on ``(volume token, tf version, chunk
  ids/sizes)`` and republished only when that changes, so an orbit's
  frames upload the volume exactly once — the paper's resident-brick
  regime.
* **Uplink** (fragments to parent, parent plane only): each worker
  streams its bucketed fragment runs through a private shared-memory
  ring buffer (:mod:`repro.parallel.ring`); only counters cross the
  pickling queues.  Chunks whose output exceeds the ring capacity fall
  back to the queue instead of deadlocking.
* **Shuffle** (worker-reduce mode): owned by the shuffle plane — see
  above.  Every plane exports backpressure counters (producer stall
  time/events, high-water marks, queue fallbacks, parent-touched run
  bytes) into ``JobStats.ring``.

NUMA/core pinning (``pin_workers=True``): each worker is pinned to a
distinct usable core before it allocates its inbound mesh edges, so
one-worker-per-GPU placement maps onto real topology and edge pages
are first-touched locally.  No-op with a warning when affinity is
unavailable or there are fewer cores than workers.

``serial=True`` executes the identical worker code path in-process with
no processes or shared memory — the deterministic fallback used by the
equivalence tests and by platforms without POSIX shared memory.

Supervision (``supervise=True``, the default; see
:mod:`repro.parallel.supervise`): infrastructure failures — a worker
process dying mid-frame, a wedged ring/edge, an expired frame
watermark — are detected by the parent's watchdog, the transport epoch
is recycled *in place* (the shared-memory arena survives and is
re-attached by name), and the in-flight frames are re-executed
bitwise-identically.  Repeated failures walk a degradation ladder:
``max_frame_retries`` attempts per frame per pool width, then the pool
shrinks by one worker (ownership re-derives from the same static
``partition % workers`` rule), and at the floor the remaining frames
run on the serial in-process executor — an infrastructure failure
degrades throughput, never correctness and never an exception.
User-code errors stay fatal.  :mod:`repro.parallel.faults` provides
the deterministic fault-injection harness that drives all of this in
tests and benchmarks.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import threading
import time
import uuid
import warnings
import weakref
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from ..core.chunk import Chunk
from ..core.executors import (
    InProcessExecutor,
    InProcessResult,
    make_map_work,
    map_telemetry,
    merge_partition_runs,
)
from ..core.job import JobConfig, MapReduceSpec
from ..core.scheduler import MapWork
from ..core.stats import JobStats
from ..observability.metrics import build_job_telemetry
from ..observability.tracer import current_tracer, span
from .ring import ShmRing
from .shm import ShmArena
from .shuffle import (
    MeshShuffle,
    ParentRoutedShuffle,
    PoolConfig,
    SocketShuffle,
    mesh_edge_name,
    mesh_fd_headroom,
)
from .socketplane import socket_path
from .supervise import (
    PoolFailure,
    PoolSupervisor,
    classify_failure,
    dead_workers,
    worker_error_to_exception,
)
from .worker import TF_ARENA_KEY, FrameContext, worker_main

__all__ = [
    "PendingFrame",
    "PoolConfig",
    "SharedMemoryPoolExecutor",
    "default_pool_workers",
    "parse_host_spec",
    "usable_cores",
]


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_pool_workers(n_gpus: int) -> int:
    """The renderer's pool-size policy: one worker per simulated GPU,
    capped to the cores actually available."""
    return max(1, min(n_gpus, usable_cores()))


def parse_host_spec(host_spec, workers: int) -> list:
    """Per-worker host ids from a ``host_spec`` (see the module docstring).

    ``None`` → all on host 0.  An int (or numeric string) ``n`` → worker
    ``wi`` on host ``wi % n``.  A comma-separated list (``"0,0,1,1"``)
    or sequence pins each worker explicitly; its length must match the
    pool size.  Host 0 must be populated — it is where the shared arena
    lives and where chunk payloads are mapped zero-copy.
    """
    workers = int(workers)
    if host_spec is None:
        return [0] * workers
    if isinstance(host_spec, str):
        host_spec = host_spec.strip()
        if "," in host_spec:
            host_spec = [part.strip() for part in host_spec.split(",")]
        else:
            try:
                host_spec = int(host_spec)
            except ValueError:
                raise ValueError(
                    f"host_spec {host_spec!r} is neither a host count nor "
                    "a comma-separated per-worker host list"
                ) from None
    if isinstance(host_spec, int):
        if host_spec < 1:
            raise ValueError("host_spec host count must be at least 1")
        return [wi % host_spec for wi in range(workers)]
    try:
        ids = [int(h) for h in host_spec]
    except (TypeError, ValueError):
        raise ValueError(
            f"host_spec {host_spec!r} must be an int, a comma-separated "
            "list, or a sequence of host ids"
        ) from None
    if len(ids) != workers:
        raise ValueError(
            f"host_spec lists {len(ids)} host id(s) for {workers} worker(s)"
        )
    if any(h < 0 for h in ids):
        raise ValueError("host_spec host ids must be >= 0")
    if 0 not in ids:
        raise ValueError(
            "host_spec must place at least one worker on host 0 "
            "(the host holding the shared-memory arena)"
        )
    return ids


def _cleanup(state: dict) -> None:
    """Finalizer shared by close() and GC: tear down processes and shm.

    Mesh edge rings were *created* by workers but are *owned* (unlink
    duty) here: closing them after the processes are gone guarantees no
    segment outlives the pool even when a worker died mid-shuffle.

    Serialized per-pool: an explicit ``close()`` can race the GC
    finalizer (or a second ``close()`` from another thread), and both
    must not interleave the pop-then-teardown of the same resources.
    The lock lives *in the state dict* so the weakref finalizer and
    every explicit caller share it without holding the executor alive.
    ``state["join_timeout"]`` (default 5 s) bounds the graceful drain —
    the supervisor's recovery path shortens it because a worker stalled
    by an injected fault will never drain voluntarily.
    """
    lock = state.setdefault("_lock", threading.Lock())
    with lock:
        procs = state.pop("procs", [])
        task_queues = state.pop("task_queues", [])
        join_timeout = float(state.get("join_timeout", 5.0))
        for q in task_queues:
            try:
                q.put(("stop",))
            except Exception:
                pass
        for p in procs:
            p.join(timeout=join_timeout)
            if p.is_alive():  # stuck worker (e.g. blocked on a wedged edge)
                p.terminate()  # SIGTERM → worker's graceful-exit handler
                p.join(timeout=2.0)
            if p.is_alive():  # ignoring SIGTERM (masked or wedged in C)
                p.kill()
                p.join(timeout=1.0)
        for ring in state.pop("rings", []):
            ring.close()
        for ring in state.pop("mesh_edges", {}).values():
            ring.close()  # attached with owner=True: close() unlinks
        # Defensive sweep: edge names are deterministic (pool token +
        # edge coordinates) and recorded *before* forking, so even a
        # worker that died mid-handshake — before reporting anything —
        # cannot leak the segments it had already created.
        from multiprocessing import shared_memory

        for name in state.pop("mesh_edge_names", []):
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue  # never created, or already unlinked
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - unlink race
                pass
        # Same crash-safe sweep for the tcp plane's AF_UNIX listener
        # paths: deterministic (pool token + worker id), recorded
        # before forking, so a worker killed mid-handshake cannot leak
        # its socket file.
        for path in state.pop("socket_paths", []):
            try:
                os.unlink(path)
            except (FileNotFoundError, OSError):
                pass
        arena = state.pop("arena", None)
        if arena is not None:
            arena.close()


class PendingFrame:
    """Handle for one in-flight frame of the pool pipeline.

    Opaque to callers: pass it back to
    :meth:`SharedMemoryPoolExecutor.collect` to obtain the frame's
    :class:`~repro.core.executors.InProcessResult`.  The executor keeps
    the frame's partial state (per-chunk runs and counters, per
    -partition reduced outputs) here while later frames are submitted.
    """

    __slots__ = (
        "seq",
        "spec",
        "chunks",
        "chunk_to_gpu",
        "n",
        "runs_per_chunk",
        "emitted_per_chunk",
        "kept_per_chunk",
        "work_per_chunk",
        "routed_per_chunk",
        "map_received",
        "queue_fallbacks",
        "parent_run_bytes",
        "wire_bytes",
        "sealed",
        "outputs",
        "pairs_per_reducer",
        "reduced_received",
        "result",
        "retries",
    )

    def __init__(
        self,
        seq: int,
        spec: MapReduceSpec,
        chunks: Sequence[Chunk],
        chunk_to_gpu: Optional[Sequence[int]],
        result: Optional[InProcessResult] = None,
    ):
        self.seq = seq
        self.spec = spec
        self.chunks = list(chunks)
        self.chunk_to_gpu = chunk_to_gpu
        n = len(self.chunks)
        self.n = n
        self.runs_per_chunk: list = [None] * n
        self.emitted_per_chunk = [0] * n
        self.kept_per_chunk = [0] * n
        self.work_per_chunk: list = [None] * n
        self.routed_per_chunk: list = [None] * n
        self.map_received = 0
        self.queue_fallbacks = 0
        self.parent_run_bytes = 0  # run bytes that crossed the parent
        self.wire_bytes = 0  # bytes on the wire (tcp plane, headers incl.)
        self.sealed = False
        self.outputs: list = [None] * spec.n_reducers
        self.pairs_per_reducer = np.zeros(spec.n_reducers, dtype=np.int64)
        self.reduced_received = 0
        self.result = result
        self.retries = 0  # recovery re-executions of this frame so far

    @property
    def done(self) -> bool:
        return self.result is not None

    def reset_for_retry(self) -> None:
        """Rewind every partial counter so the frame can be re-executed.

        The supervisor calls this before replaying the frame on a fresh
        transport epoch: all map results, buffered runs, and reduced
        spans drain from the *new* processes, so nothing from the failed
        attempt may be left behind to double-count.  Chunks and spec are
        retained (the handle stays valid), only progress is discarded.
        """
        n = self.n
        self.runs_per_chunk = [None] * n
        self.emitted_per_chunk = [0] * n
        self.kept_per_chunk = [0] * n
        self.work_per_chunk = [None] * n
        self.routed_per_chunk = [None] * n
        self.map_received = 0
        self.queue_fallbacks = 0
        self.parent_run_bytes = 0
        self.wire_bytes = 0
        self.sealed = False
        self.outputs = [None] * self.spec.n_reducers
        self.pairs_per_reducer = np.zeros(self.spec.n_reducers, dtype=np.int64)
        self.reduced_received = 0
        self.retries += 1


class SharedMemoryPoolExecutor:
    """Fan brick map (and reduce) work out across a pool of workers.

    Parameters
    ----------
    workers:
        Pool size (defaults to the number of usable cores).  The
        renderer passes its simulated-GPU count so placement maps one
        worker per GPU.
    config:
        :class:`~repro.core.job.JobConfig` execution knobs (kept for
        surface parity with the other executors).
    ring_capacity:
        Per-worker uplink fragment ring size in bytes (overrides
        ``pool_config.ring_capacity``).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``.
    serial:
        Run the identical code path in-process (no processes, no shared
        memory).  Deterministic fallback for tests and constrained
        platforms.
    reduce_mode:
        ``"parent"`` (Sort+Reduce in the parent, the default) or
        ``"worker"`` (per-partition Sort+Reduce on the owning worker —
        the paper's symmetric layout).  Outputs are bitwise-identical
        either way.
    pipeline_depth:
        Max frames in flight for :meth:`submit`/:meth:`collect`; 1
        means fully synchronous.  ``execute`` is unaffected by values
        > 1 unless frames are also submitted asynchronously.
    shuffle_mode:
        ``"parent"``, ``"mesh"``, ``"tcp"``, or ``"auto"`` (default) —
        which shuffle plane moves fragment runs between processes; see
        the module docstring.  Bitwise-identical output either way.
    socket_family:
        Address family of the tcp plane's edge streams: ``"unix"``
        (default where available) or ``"inet"`` (loopback TCP);
        ``None`` reads ``$REPRO_SOCKET_FAMILY``.  Ignored by the
        other planes.
    host_spec:
        Worker→host placement for the tcp plane (``None``: everything
        on host 0).  An int round-robins workers across that many
        hosts; a comma-separated string or sequence pins each worker.
        Hosts other than 0 get chunk payloads over the wire instead of
        the shm arena (see the module docstring); any multi-host spec
        requires the socket plane (``shuffle_mode="tcp"`` with
        ``reduce_mode="worker"``), because every other transport
        assumes one shared-memory box.
    pin_workers:
        Opt-in NUMA/core pinning (see module docstring).
    ring_write_timeout:
        Seconds a blocked ring/edge write may wait before the pool is
        declared wedged; ``None`` reads ``$REPRO_RING_WRITE_TIMEOUT``
        (default 300).
    mesh_edge_capacity:
        Per-edge mesh ring bytes (default ``ring_capacity // workers``,
        floor 64 KiB).
    watermark_timeout:
        Seconds a mesh reducer may wait for a frame's completion
        watermark before declaring the frame wedged; ``None`` reads
        ``$REPRO_WATERMARK_TIMEOUT`` and falls back to the ring write
        timeout.
    supervise:
        When True (the default), infrastructure failures — a dead
        worker process, a wedged transport timeout — are *recovered*:
        the transport epoch is recycled in place, in-flight frames are
        re-executed (bitwise-identically), and repeated failures walk a
        degradation ladder (shrink the pool, then fall back to the
        serial executor) instead of erroring.  ``supervise=False``
        restores the legacy semantics: any failure tears the pool down
        and propagates.  User-code exceptions (a mapper/reducer raise)
        are *never* retried under either setting — retrying a
        deterministic bug burns the retry budget to reproduce it.
    max_frame_retries:
        Recovery attempts per frame at a given pool width before the
        degradation ladder steps down; ``None`` reads
        ``$REPRO_MAX_FRAME_RETRIES`` (default 2).
    retry_backoff:
        Base seconds of exponential backoff between recovery attempts;
        ``None`` reads ``$REPRO_RETRY_BACKOFF`` (default 0.05).
    fault_plan:
        Deterministic fault-injection plan for the workers (see
        :mod:`repro.parallel.faults` for the grammar); ``None`` reads
        ``$REPRO_FAULT_PLAN``.  Testing/benchmark hook — production
        pools leave it unset.
    kernel:
        March-kernel backend every worker must resolve and JIT-warm at
        spawn (``"auto"``/``"numpy"``/``"numba"``; None skips warmup —
        the pool then runs whatever the mapper's own config selects).
        The renderer passes the *concrete* backend it resolved, so a
        worker that cannot provide it (e.g. numba missing in the
        worker's interpreter) reports an error before the first frame
        instead of rendering with a divergent marcher.  Warmup runs
        once per spawned worker, off the frame critical path, inside a
        ``kernel-warmup`` tracer span; the pool counts warmups in
        ``JobStats.telemetry``.
    pool_config:
        A :class:`~repro.parallel.shuffle.PoolConfig` supplying the
        transport defaults; the explicit keyword arguments above
        override its fields.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        config: Optional[JobConfig] = None,
        ring_capacity: Optional[int] = None,
        start_method: Optional[str] = None,
        serial: bool = False,
        reduce_mode: str = "parent",
        pipeline_depth: int = 1,
        shuffle_mode: Optional[str] = None,
        socket_family: Optional[str] = None,
        host_spec=None,
        pin_workers: Optional[bool] = None,
        ring_write_timeout: Optional[float] = None,
        mesh_edge_capacity: Optional[int] = None,
        watermark_timeout: Optional[float] = None,
        supervise: Optional[bool] = None,
        max_frame_retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
        fault_plan: Optional[str] = None,
        kernel: Optional[str] = None,
        pool_config: Optional[PoolConfig] = None,
    ):
        if workers is None:
            workers = usable_cores()
        if workers < 1:
            raise ValueError("need at least one worker")
        if reduce_mode not in ("parent", "worker"):
            raise ValueError(f"unknown reduce_mode {reduce_mode!r}")
        if pipeline_depth < 1:
            raise ValueError("pipeline depth must be at least 1")
        base = pool_config if pool_config is not None else PoolConfig()
        overrides = {
            k: v
            for k, v in {
                "ring_capacity": ring_capacity,
                "shuffle_mode": shuffle_mode,
                "socket_family": socket_family,
                "pin_workers": pin_workers,
                "ring_write_timeout": ring_write_timeout,
                "mesh_edge_capacity": mesh_edge_capacity,
                "watermark_timeout": watermark_timeout,
                "supervise": supervise,
                "max_frame_retries": max_frame_retries,
                "retry_backoff": retry_backoff,
                "fault_plan": fault_plan,
            }.items()
            if v is not None
        }
        self.pool_config = replace(base, **overrides)  # revalidates knobs
        self.workers = int(workers)
        self.config = config if config is not None else JobConfig()
        self.serial = bool(serial)
        self.reduce_mode = reduce_mode
        self.pipeline_depth = int(pipeline_depth)
        # Resolve the transport once, at construction, so a later env
        # change cannot flip a live pool's plane mid-orbit.
        self.ring_capacity = self.pool_config.ring_capacity
        self.shuffle_mode = self.pool_config.resolved_shuffle_mode(reduce_mode)
        if self.mesh_active:  # serial pools open zero edge fds
            # The parent attaches all N(N-1) edges; on many-core hosts
            # that can blow through the fd soft limit mid-handshake.
            # An implicit (auto) mesh quietly degrades to the parent
            # plane — bitwise-identical, just slower — while an
            # explicit request fails fast with a fix instead of a
            # confusing EMFILE from deep inside the handshake.
            fits, needed, soft = mesh_fd_headroom(self.workers)
            if not fits:
                if self.pool_config.shuffle_mode_is_explicit():
                    raise ValueError(
                        f"shuffle_mode='mesh' with {self.workers} workers "
                        f"needs ~{needed} file descriptors in the parent "
                        f"but the soft RLIMIT_NOFILE is {soft}; raise the "
                        "limit (ulimit -n) or reduce workers"
                    )
                warnings.warn(
                    f"auto shuffle: using the parent-routed plane — a "
                    f"{self.workers}-worker mesh needs ~{needed} file "
                    f"descriptors but the soft RLIMIT_NOFILE is {soft}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.shuffle_mode = "parent"
        # Socket-plane placement: resolved (and validated) here so a
        # bad host spec or family fails at construction, like every
        # other transport knob.
        self.host_ids = parse_host_spec(host_spec, self.workers)
        self.multi_host = len(set(self.host_ids)) > 1
        self.socket_family = (
            self.pool_config.resolved_socket_family()
            if self.tcp_active
            else None
        )
        if self.multi_host and not self.tcp_active:
            raise ValueError(
                "a multi-host host_spec requires the socket shuffle plane "
                "(shuffle_mode='tcp' with reduce_mode='worker'): every "
                "other transport assumes one shared-memory box"
            )
        self.ring_write_timeout = self.pool_config.resolved_ring_write_timeout()
        self.mesh_edge_capacity = self.pool_config.resolved_edge_capacity(
            self.workers
        )
        self.pin_workers = bool(self.pool_config.pin_workers)
        # Supervision knobs: resolved once here so a live pool's retry
        # policy cannot flip mid-orbit via an env change.  A serial pool
        # has no processes to supervise (and the serial path is itself
        # the last rung of the degradation ladder).
        self.watermark_timeout = self.pool_config.resolved_watermark_timeout()
        self.supervise = bool(self.pool_config.supervise) and not self.serial
        self.max_frame_retries = self.pool_config.resolved_max_frame_retries()
        self.retry_backoff = self.pool_config.resolved_retry_backoff()
        self.fault_plan = self.pool_config.resolved_fault_plan()
        if kernel is not None and kernel not in ("auto", "numpy", "numba"):
            raise ValueError(
                f"kernel must be one of 'auto', 'numpy', 'numba', got {kernel!r}"
            )
        self.kernel = kernel
        # Worker kernel warmups performed so far (one per spawned worker
        # when a kernel is pinned; respawned waves re-warm) — exported
        # via JobStats.telemetry.
        self._kernel_warmups = 0
        self._supervisor = PoolSupervisor()
        self._spawn_gen = 0  # spawn waves so far; fault rules key on it
        self._degraded_serial = False  # ladder hit the floor: serial only
        self._arena_rebroadcast = False  # fresh wave must re-attach arena
        # Cumulative arena traffic, exported via JobStats.telemetry: how
        # many times the downlink actually re-uploaded vs. re-attached.
        self._arena_publishes = 0
        self._arena_bytes_published = 0
        self._arena_rebroadcasts = 0
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._state: dict = {}
        self._arena_fingerprint = None
        self._result_queue = None
        self._seq = 0
        self._pending: dict[int, PendingFrame] = {}  # insertion-ordered
        self._plane = None
        self._finalizer = weakref.finalize(self, _cleanup, self._state)

    # -- lifecycle ---------------------------------------------------------
    @property
    def running(self) -> bool:
        return bool(self._state.get("procs"))

    @property
    def mesh_active(self) -> bool:
        """Whether the worker↔worker mesh data plane materializes.

        The mesh only exists when workers reduce: with a parent-side
        reduce every run's destination is the parent, so the uplink
        rings already are the direct path and ``shuffle_mode="mesh"``
        degenerates to the parent-routed plane (bitwise-identically).
        A ``serial=True`` pool runs everything in-process — no
        processes, no transport of any kind — so no plane materializes
        there either.
        """
        return (
            self.shuffle_mode == "mesh"
            and self.reduce_mode == "worker"
            and not self.serial
        )

    @property
    def tcp_active(self) -> bool:
        """Whether the socket (tcp) data plane materializes — same rule
        as :attr:`mesh_active`: only when workers reduce (a parent-side
        reduce makes the uplink rings the direct path already) and the
        pool is not serial."""
        return (
            self.shuffle_mode == "tcp"
            and self.reduce_mode == "worker"
            and not self.serial
        )

    @property
    def effective_shuffle_mode(self) -> str:
        """The plane that actually carries run bytes: ``"mesh"``/``"tcp"``
        only when that direct plane materializes (see
        :attr:`mesh_active` / :attr:`tcp_active`), else ``"parent"`` —
        always agrees with what ``JobStats.ring["shuffle_mode"]``
        reports."""
        if self.tcp_active:
            return "tcp"
        return "mesh" if self.mesh_active else "parent"

    def _worker_pins(self) -> list:
        """Per-worker core assignment for ``pin_workers`` (None = unpinned).

        Distinct cores, taken from this process's own affinity mask so
        a pool nested under an external pinning regime stays inside it.
        """
        if not self.pin_workers:
            return [None] * self.workers
        if not hasattr(os, "sched_setaffinity"):  # pragma: no cover
            warnings.warn(
                "pin_workers=True ignored: CPU affinity is unavailable "
                "on this platform",
                RuntimeWarning,
                stacklevel=3,
            )
            return [None] * self.workers
        cores = sorted(os.sched_getaffinity(0))
        if len(cores) < self.workers:
            warnings.warn(
                f"pin_workers=True ignored: {len(cores)} usable core(s) "
                f"for {self.workers} workers",
                RuntimeWarning,
                stacklevel=3,
            )
            return [None] * self.workers
        return cores[: self.workers]

    def _ensure_started(self) -> None:
        if self.running:
            return
        # The whole fork tree must share ONE resource tracker: segment
        # bookkeeping pairs a register in one process with an unregister
        # in another (worker-created mesh edges are unlinked by whoever
        # gets there first — see shm.py's tracker note).  Children only
        # inherit a tracker that is already running, and on the mesh
        # plane the parent may fork before creating any segment of its
        # own, so start it explicitly or every process lazily spawns its
        # own tracker and each warns about phantom "leaks" at exit.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker is an optimization
            pass
        pins = self._worker_pins()
        mesh_active = self.mesh_active
        tcp_active = self.tcp_active
        direct_plane = mesh_active or tcp_active
        # Uplink rings exist only on the parent-routed plane; on the
        # direct planes (mesh, tcp) every run byte travels
        # worker<->worker edges, so the uplinks would be N dead
        # full-capacity segments.
        rings = (
            []
            if direct_plane
            else [
                ShmRing.create(self.ring_capacity)
                for _ in range(self.workers)
            ]
        )
        task_queues = [self._ctx.Queue() for _ in range(self.workers)]
        self._result_queue = self._ctx.Queue()
        mesh_token = None
        if mesh_active:
            # Deterministic edge names, recorded before any worker
            # exists: teardown can unlink every edge a worker may have
            # created even if it dies before the handshake completes.
            mesh_token = uuid.uuid4().hex[:12]
            self._state["mesh_edge_names"] = [
                mesh_edge_name(mesh_token, i, j)
                for i in range(self.workers)
                for j in range(self.workers)
                if i != j
            ]
        socket_token = None
        if tcp_active:
            # Same crash-safe trick for the socket plane: AF_UNIX
            # listener paths are deterministic and recorded pre-fork,
            # so teardown can sweep them no matter when a worker died.
            socket_token = uuid.uuid4().hex[:12]
            if self.socket_family == "unix":
                self._state["socket_paths"] = [
                    socket_path(socket_token, wi)
                    for wi in range(self.workers)
                ]
        spawn_gen = self._spawn_gen
        self._spawn_gen += 1
        procs = []
        for wi in range(self.workers):
            cfg = {
                "pin_cpu": pins[wi],
                "write_timeout": self.ring_write_timeout,
                "watermark_timeout": self.watermark_timeout,
                "mesh_active": mesh_active,
                "n_workers": self.workers,
                "edge_capacity": self.mesh_edge_capacity,
                "mesh_token": mesh_token,
                "socket_active": tcp_active,
                "socket_token": socket_token,
                "socket_family": self.socket_family,
                # Off-host workers (host != 0) never receive arena
                # messages; their chunk payloads and TF table ride the
                # task queues instead.
                "host_id": self.host_ids[wi],
                "fault_plan": self.fault_plan,
                # Fault rules default to generation 0, so a respawned
                # wave does not re-trip the fault that killed its
                # predecessor (gen=any opts into exactly that, to
                # drive the degradation ladder in tests).
                "spawn_gen": spawn_gen,
                # Workers inherit the parent's tracer object over fork;
                # this flag tells worker_main to install its *own* fresh
                # tracer (or drop the inherited one) so span buffers are
                # per-process and ship back over the result queue.
                "trace": current_tracer() is not None,
                # March-kernel backend to resolve + JIT-warm at spawn
                # (concrete when a renderer pinned it; None skips).
                "kernel": self.kernel,
            }
            p = self._ctx.Process(
                target=worker_main,
                args=(
                    wi,
                    task_queues[wi],
                    self._result_queue,
                    rings[wi].name if not direct_plane else None,
                    cfg,
                ),
                daemon=True,
                name=f"repro-pool-{wi}",
            )
            p.start()
            procs.append(p)
        if self.kernel is not None:
            # Every spawned worker warms its kernel before serving
            # frames (worker_main, post-handshake); account for the
            # wave here — a warmup *failure* surfaces as a worker
            # "error" message and fails the next pump fast.
            self._kernel_warmups += self.workers
        self._state.update(
            procs=procs, task_queues=task_queues, rings=rings
        )
        # The plane owns the data path; it finishes its own transport
        # bring-up (the mesh edge / socket address handshake) before
        # any frame flows.
        if tcp_active:
            self._plane = SocketShuffle(self)
        elif mesh_active:
            self._plane = MeshShuffle(self)
        else:
            self._plane = ParentRoutedShuffle(self)
        self._plane.start()

    def close(self) -> None:
        """Shut the pool down and release every shared-memory segment.

        Frames still in flight are aborted: collecting their handles
        afterwards raises.  Idempotent and safe to race from multiple
        threads (or against the GC finalizer): teardown is serialized
        by a lock inside the shared state dict and every resource is
        claimed by ``pop``, so each segment/process is torn down by
        exactly one caller and the rest see already-empty state.
        """
        _cleanup(self._state)
        self._arena_fingerprint = None
        self._result_queue = None
        self._pending.clear()
        self._plane = None

    def _teardown_transport(self, join_timeout: float = 1.0) -> None:
        """Recycle the transport epoch, *keeping* the published arena.

        Recovery's fault domain is the whole transport — processes,
        queues, uplink rings, mesh edges — because SPSC cursor state
        cannot be rewound for a single lost peer.  The arena is popped
        around the sweep so the expensive brick/TF segments survive;
        the fingerprint stays valid, so replay re-publishes nothing
        and the fresh wave re-attaches by name.  ``join_timeout`` is
        short: a worker wedged or stalled by a fault will never drain
        voluntarily, so escalate to SIGTERM/SIGKILL quickly.
        """
        arena = self._state.pop("arena", None)
        self._state["join_timeout"] = join_timeout
        try:
            _cleanup(self._state)
        finally:
            self._state.pop("join_timeout", None)
            if arena is not None:
                self._state["arena"] = arena
                # The next publish against a fresh wave must re-send the
                # kept arena's spec even when the fingerprint matches.
                self._arena_rebroadcast = True
        self._result_queue = None
        self._plane = None

    # -- supervision & recovery --------------------------------------------
    def _run_pipeline_op(self, op, serial_fallback):
        """Run one pipeline operation under the supervisor.

        ``op`` is a re-runnable closure (a submit enqueue or a collect
        drain).  On an *infrastructure* failure — dead worker, wedged
        transport — the supervisor recycles the transport epoch and
        replays the in-flight frames, then ``op`` is retried against
        the fresh pool.  On any other exception (user code, interrupt,
        protocol violation) or with ``supervise=False``, the historical
        semantics hold: full teardown, propagate.  When the degradation
        ladder bottoms out in serial execution, ``serial_fallback``
        produces the operation's result without any pool at all.
        """
        while True:
            try:
                return op()
            except BaseException as exc:
                failure = classify_failure(exc) if self.supervise else None
                if failure is None:
                    # Leftover ring bytes or queue messages from a
                    # partially-drained frame must never pair with a
                    # later frame's chunks: tear everything down.
                    self.close()
                    raise
                self._recover(failure)
                if self._degraded_serial:
                    return serial_fallback()

    def _recover(self, failure: PoolFailure) -> None:
        """Quarantine the failed transport epoch and re-execute frames.

        The bounded-retry ladder: each in-flight frame gets
        ``max_frame_retries`` recovery attempts at the current pool
        width; exhausting them steps the width down by one (the static
        ``partition % n_workers`` ownership contract re-owns every
        partition deterministically, so results cannot change); at
        width zero the pool stops pretending and runs the remaining
        frames through the serial in-process executor — the pipeline
        *degrades*, it never errors, for infrastructure failures.
        Exponential backoff between attempts gives a transiently sick
        host (OOM-killer sweeps, cgroup pressure) room to breathe.
        """
        attempt = 0
        while True:
            self._supervisor.record_failure(failure)
            frames = [f for f in self._pending.values() if not f.done]
            # Recycle the whole transport epoch: processes, queues,
            # rings, edges.  The arena survives (see _teardown_transport).
            self._teardown_transport()
            spent = max((f.retries for f in frames), default=attempt)
            if spent >= self.max_frame_retries:
                if self.workers > 1:
                    old = self.workers
                    self.workers = old - 1
                    self.mesh_edge_capacity = (
                        self.pool_config.resolved_edge_capacity(self.workers)
                    )
                    # Shedding the last worker of a host may collapse a
                    # multi-host placement back to single-host — then
                    # everyone attaches the arena again.
                    self.host_ids = self.host_ids[: self.workers]
                    self.multi_host = len(set(self.host_ids)) > 1
                    self._supervisor.record_degraded(old, self.workers)
                    for f in frames:
                        f.retries = 0  # fresh budget at the new width
                else:
                    # The ladder's floor: no healthy width left.  The
                    # serial executor is the identical algorithm with no
                    # transport to fail, so finish the frames there.
                    self._supervisor.record_serial_fallback()
                    self._degraded_serial = True
                    for f in sorted(frames, key=lambda f: f.seq):
                        f.result = self._execute_serial(
                            f.spec, f.chunks, f.chunk_to_gpu
                        )
                        f.result.stats.recovery = self._supervisor.snapshot(
                            frame_retries=f.retries, workers=0
                        )
                        self._pending.pop(f.seq, None)
                    self._supervisor.record_reexecuted(len(frames))
                    return
            if self.retry_backoff > 0:
                time.sleep(
                    min(self.retry_backoff * (2 ** min(attempt, 6)), 5.0)
                )
            attempt += 1
            for f in frames:
                f.reset_for_retry()
            try:
                # Respawn latency runs until the replayed frames' maps
                # are sealed on the fresh wave: a wave that has spawned
                # but not yet mapped has still to pay its first-touch
                # costs, and those belong to the recovery.
                t0 = time.monotonic()
                with span("respawn", cat="respawn", workers=self.workers) as sp:
                    self._ensure_started()
                    gen = self._spawn_gen - 1
                    sp.set(gen=gen)
                    try:
                        self._replay(frames)
                    finally:
                        self._supervisor.record_respawn(
                            self.workers, time.monotonic() - t0, gen
                        )
                return
            except BaseException as exc:
                inner = classify_failure(exc)
                if inner is None:  # a bug (or interrupt) inside recovery
                    self.close()
                    raise
                failure = inner  # the fresh wave failed too: loop

    def _replay(self, frames: Sequence[PendingFrame]) -> None:
        """Re-enqueue ``frames`` (oldest first) on the fresh transport.

        The common case re-publishes nothing: the arena survived the
        teardown and the fingerprint still matches, so workers re-attach
        the same segments by name.  A frame submitted against an *older*
        arena generation (possible mid-orbit with pipeline_depth > 1)
        repacks from its retained chunks instead — correct either way,
        because each worker processes its queue strictly in order:
        arena switch, then that frame's maps.

        Each frame is *sealed* (its map results drained) before the next
        frame's messages are enqueued, mirroring :meth:`submit`'s
        drain-before-republish ordering: ``_publish`` unlinks the
        previous arena the moment a new spec is enqueued, which is only
        safe once every worker has provably attached it — and a drained
        frame is exactly that proof.
        """
        if not frames:
            return
        for f in sorted(frames, key=lambda f: f.seq):
            self._publish(f.spec, f.chunks)
            arena_payload, wire_payload = self._frame_payloads(f.spec, f.n)
            self._put_frame(arena_payload, wire_payload)
            for ci, chunk in enumerate(f.chunks):
                wi = (
                    int(f.chunk_to_gpu[ci])
                    if f.chunk_to_gpu is not None
                    else ci
                ) % self.workers
                self._state["task_queues"][wi].put(
                    self._map_message(f.seq, ci, chunk, wi)
                )
            self._seal(f)
        self._supervisor.record_reexecuted(len(frames))

    def __enter__(self) -> "SharedMemoryPoolExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- data publication --------------------------------------------------
    def _arena_queues(self) -> list:
        """Task queues of the workers that attach the shm arena — host-0
        workers only.  Off-host workers must never see an arena spec
        (there is, by definition, no shared segment on their host);
        their data rides the queues instead."""
        return [
            q
            for wi, q in enumerate(self._state["task_queues"])
            if self.host_ids[wi] == 0
        ]

    def _publish(self, spec: MapReduceSpec, chunks: Sequence[Chunk]) -> None:
        """(Re)publish the chunk payload + transfer-function arena.

        Nothing else rides in it: the empty-space structures are cheap
        functions of ``(payload, transfer function)`` that every worker
        builds into its own acceleration cache on its first frame.  The
        fingerprint pins what the arena holds — volume token, tf
        version and the brick regions — so an orbit publishes once.
        """
        token = getattr(spec.mapper, "accel_token", None)
        tf = getattr(spec.mapper, "tf", None)
        tf_version = getattr(tf, "version", None)
        sig = (
            (
                token,
                tf_version,
                tuple(
                    (
                        c.id,
                        c.nbytes,
                        # Pin the brick's region: the same volume can be
                        # bricked into different grids reusing chunk ids.
                        getattr(c.meta, "data_lo", None),
                        getattr(c.meta, "data_hi", None),
                    )
                    for c in chunks
                ),
            )
            if token is not None
            else None  # unknown provenance: always republish
        )
        if sig is not None and sig == self._arena_fingerprint:
            if self._arena_rebroadcast:
                # Recovery fast path: the arena survived the transport
                # teardown (workers only ever *attach* it, so it was
                # never at risk from a dead process) but the respawned
                # wave has not seen its spec yet.  Re-send the kept spec
                # — the workers re-attach gigabytes of bricks by name in
                # microseconds instead of a full repack.  Sent here, not
                # at spawn time, so it keeps the publish-path ordering
                # guarantee: an arena spec always precedes (in the same
                # task queue) the frame that needs it, and any *newer*
                # arena that replaces it is only published after this
                # frame's maps have drained.
                with span("publish", cat="publish", rebroadcast=True):
                    arena = self._state["arena"]
                    for q in self._arena_queues():
                        q.put(("arena", arena.spec))
                self._arena_rebroadcast = False
                self._arena_rebroadcasts += 1
            return
        with span("publish", cat="publish", chunks=len(chunks)) as sp:
            arrays = {c.id: c.payload() for c in chunks}
            if tf_version is not None:
                arrays[TF_ARENA_KEY] = tf.table
            nbytes = sum(int(a.nbytes) for a in arrays.values())
            sp.set(bytes=nbytes)
            arena = ShmArena(arrays)
            for q in self._arena_queues():
                q.put(("arena", arena.spec))
            old = self._state.get("arena")
            if old is not None:
                old.close()  # attached workers keep the memory alive until
            self._state["arena"] = arena  # they process the new-arena message
        self._arena_fingerprint = sig
        self._arena_rebroadcast = False  # fresh spec reached every queue
        self._arena_publishes += 1
        self._arena_bytes_published += nbytes

    def _frame_payloads(self, spec: MapReduceSpec, n_chunks: int) -> tuple:
        """Pickle the frame context: ``(arena_payload, wire_payload)``.

        The arena payload strips the TF table (it travels via shared
        memory; ``tf_ref`` tells the worker to rebind the arena view).
        The wire payload — built only for multi-host pools — keeps the
        table inline and leaves ``tf_ref`` unset, because an off-host
        worker has no arena to rebind from; it is ``None`` otherwise.
        ``n_chunks`` rides along so direct-plane reducers know each
        frame's completion watermark without another control message.
        """
        ctx = FrameContext.from_spec(
            spec,
            include_reducer=self.reduce_mode == "worker",
            n_chunks=n_chunks,
        )
        wire = (
            pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL)
            if self.multi_host
            else None
        )
        tf = getattr(spec.mapper, "tf", None)
        if tf is not None and getattr(tf, "version", None) is not None:
            ctx.tf_ref = (tf.vmin, tf.vmax)
            try:
                spec.mapper.tf = None  # table travels via shared memory
                return (
                    pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL),
                    wire,
                )
            finally:
                spec.mapper.tf = tf
        return pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL), wire

    def _put_frame(self, arena_payload: bytes, wire_payload) -> None:
        """Enqueue the frame context on every task queue, picking the
        wire flavor for off-host workers."""
        for wi, q in enumerate(self._state["task_queues"]):
            q.put(
                (
                    "frame",
                    wire_payload
                    if self.host_ids[wi] != 0 and wire_payload is not None
                    else arena_payload,
                )
            )

    def _map_message(self, frame_seq: int, ci: int, chunk: Chunk, wi: int):
        """One map task message.  Off-host targets get the chunk payload
        inline (there is no shared arena on their host); host-0 targets
        get ``None`` and map the arena view zero-copy as always."""
        payload = chunk.payload() if self.host_ids[wi] != 0 else None
        return (
            "map",
            frame_seq,
            ci,
            chunk.id,
            chunk.nbytes,
            chunk.on_disk,
            chunk.meta,
            payload,
        )

    # -- async frame pipeline ----------------------------------------------
    def submit(
        self,
        spec: MapReduceSpec,
        chunks: Sequence[Chunk],
        chunk_to_gpu: Optional[Sequence[int]] = None,
    ) -> PendingFrame:
        """Start one frame; pair with :meth:`collect`.

        Seals every frame already in flight first (drains its map
        results, dispatches its reduce tasks), so the task queues order
        earlier frames' reduce work ahead of this frame's maps, then
        enforces the ``pipeline_depth`` cap by force-collecting the
        oldest frames (their handles return the cached result).

        Failure semantics: under supervision (the default), an
        infrastructure failure — a dead worker, a wedged transport —
        recycles the transport epoch in place, replays the in-flight
        frames, and retries; user-code errors (and
        ``supervise=False``) keep the legacy behaviour of tearing the
        whole pool down on the way out, because leftover ring bytes or
        queue messages from a partially-drained frame must never be
        paired with a later frame's chunks.
        """
        if self.serial or self._degraded_serial or len(chunks) == 0:
            # Zero chunks means nothing to fan out (and nothing to put in
            # an arena); the serial path returns the same empty-job result
            # InProcessExecutor produces.  A pool degraded to the serial
            # floor routes every subsequent frame here too.
            result = self._execute_serial(spec, chunks, chunk_to_gpu)
            if self._degraded_serial and self._supervisor.active:
                result.stats.recovery = self._supervisor.snapshot(workers=0)
            self._seq += 1
            return PendingFrame(
                self._seq, spec, chunks, chunk_to_gpu, result=result
            )
        ids = [c.id for c in chunks]
        if len(set(ids)) != len(ids):
            raise ValueError("chunk ids must be unique for the pool executor")

        def op() -> PendingFrame:
            self._ensure_started()
            for f in list(self._pending.values()):
                self._seal(f)
            while len(self._pending) >= self.pipeline_depth:
                self._collect_oldest()
            self._publish(spec, chunks)
            arena_payload, wire_payload = self._frame_payloads(
                spec, len(chunks)
            )
            self._put_frame(arena_payload, wire_payload)
            frame = PendingFrame(self._seq + 1, spec, chunks, chunk_to_gpu)
            for ci, chunk in enumerate(chunks):
                wi = (
                    int(chunk_to_gpu[ci]) if chunk_to_gpu is not None else ci
                ) % self.workers
                self._state["task_queues"][wi].put(
                    self._map_message(frame.seq, ci, chunk, wi)
                )
            # Register (and burn the seq) only once every message is
            # enqueued: if anything above failed, the partial messages
            # died with the recycled transport and op re-runs cleanly
            # from scratch without replaying a half-submitted frame.
            self._seq += 1
            self._pending[frame.seq] = frame
            return frame

        def fallback() -> PendingFrame:
            result = self._execute_serial(spec, chunks, chunk_to_gpu)
            result.stats.recovery = self._supervisor.snapshot(workers=0)
            self._seq += 1
            return PendingFrame(
                self._seq, spec, chunks, chunk_to_gpu, result=result
            )

        return self._run_pipeline_op(op, fallback)

    def collect(self, frame: PendingFrame) -> InProcessResult:
        """Finish ``frame`` and return its result.

        Frames complete in submission order; collecting a newer frame
        first silently completes the older ones (their handles keep the
        cached results).
        """
        while frame.result is None:
            if frame.seq not in self._pending:
                # A stale handle (aborted by an earlier shutdown) is a
                # caller error, not a pipeline failure: report it without
                # tearing down whatever healthy pool is running now.
                raise RuntimeError(
                    "frame was aborted by a pool shutdown before it "
                    "could be collected"
                )
            # If recovery bottoms out in serial execution, _recover has
            # already finished every pending frame (including this one),
            # so the fallback has nothing left to do.
            self._run_pipeline_op(self._collect_oldest, lambda: None)
        return frame.result

    # -- execution ---------------------------------------------------------
    def execute(
        self,
        spec: MapReduceSpec,
        chunks: Sequence[Chunk],
        chunk_to_gpu: Optional[Sequence[int]] = None,
    ) -> InProcessResult:
        """Execute ``spec`` over ``chunks`` — same surface as the serial
        executor; ``chunk_to_gpu`` doubles as worker placement (one
        worker per simulated GPU, modulo pool size)."""
        return self.collect(self.submit(spec, chunks, chunk_to_gpu))

    # -- pipeline internals ------------------------------------------------
    def _oldest(self) -> PendingFrame:
        return next(iter(self._pending.values()))

    def _seal(self, frame: PendingFrame) -> None:
        """Bring ``frame`` to the point where later frames may be enqueued:
        all map results drained and (in worker mode) reduce dispatched."""
        if frame.sealed:
            return
        while frame.map_received < frame.n:
            self._pump()
        if self.reduce_mode == "worker":
            # Control-plane handoff to the shuffle plane: parent-routed
            # ships the runs it buffered; mesh only announces ownership
            # (the runs are already in the owners' inbound edges).
            self._plane.dispatch_reduce(frame)
        frame.sealed = True

    def _recv(self, timeout: float = 1.0):
        """One result-queue message, or None after a liveness check."""
        try:
            return self._result_queue.get(timeout=timeout)
        except queue_mod.Empty:
            dead = dead_workers(self._state.get("procs", []))
            if dead:
                names = [name for name, _ in dead]
                raise PoolFailure(
                    f"pool worker(s) died during execute: {names}",
                    kind="worker-death",
                    workers=names,
                )
            return None

    def _pump(self, timeout: float = 1.0) -> None:
        """Receive and route one worker message (or poll for dead workers)."""
        msg = self._recv(timeout=timeout)
        if msg is None:
            return
        kind = msg[0]
        if kind == "spans":
            # A worker's span buffer, flushed just before a completion
            # message (FIFO: the spans of everything a frame counts are
            # absorbed by the time the frame seals).  Silently dropped
            # when tracing was turned off between spawn and delivery.
            tracer = current_tracer()
            if tracer is not None:
                tracer.add_remote(msg[1], msg[2], msg[3])
            return
        if kind == "error":
            # Workers tag errors with the exception type name so the
            # parent can tell infrastructure failures (RingTimeout — a
            # wedge, recoverable) from user-code bugs (fatal).
            _, wi, what, tb, etype = msg
            raise worker_error_to_exception(wi, what, tb, etype)
        if kind == "done":
            (_, wi, seq, ci, emitted, kept, work, routed, ring_nbytes,
             inline, fallbacks) = msg
            frame = self._pending[seq]
            self._plane.on_map_done(frame, wi, ci, routed, ring_nbytes, inline)
            frame.emitted_per_chunk[ci] = emitted
            frame.kept_per_chunk[ci] = kept
            frame.work_per_chunk[ci] = work
            frame.routed_per_chunk[ci] = np.asarray(routed, dtype=np.int64)
            frame.map_received += 1
            frame.queue_fallbacks += int(fallbacks)
        elif kind == "mesh_fallback":
            # An oversized mesh record taking the control-plane escape
            # hatch; the plane relays it to its owner (and counts it).
            self._plane.on_fallback(self._pending[msg[2]], msg)
        elif kind == "shuffle_stats":
            # Cumulative socket-plane counters, shipped FIFO just ahead
            # of the sender's reduce result; only the tcp plane emits
            # (and consumes) them.
            on_stats = getattr(self._plane, "on_worker_stats", None)
            if on_stats is not None:
                on_stats(msg[1], msg[2])
        elif kind == "reduced":
            _, wi, seq, owned, outputs, pairs_per_reducer = msg
            frame = self._pending[seq]
            for j, r in enumerate(owned):
                frame.outputs[r] = outputs[j]
                frame.pairs_per_reducer[r] = int(pairs_per_reducer[j])
            frame.reduced_received += len(owned)
        else:  # pragma: no cover - protocol violation
            raise RuntimeError(f"unexpected pool message {kind!r}")

    def _collect_oldest(self) -> None:
        """Complete the oldest in-flight frame and cache its result."""
        frame = self._oldest()
        self._seal(frame)
        spec = frame.spec
        if self.reduce_mode == "worker":
            while frame.reduced_received < spec.n_reducers:
                self._pump()
            outputs = frame.outputs
            pairs_per_reducer = frame.pairs_per_reducer
        else:
            spec.reducer.initialize()
            outputs, pairs_per_reducer = merge_partition_runs(
                spec, frame.runs_per_chunk
            )
        stats = JobStats()
        works: list[MapWork] = []
        for ci, chunk in enumerate(frame.chunks):
            stats.add_map(
                frame.work_per_chunk[ci],
                frame.emitted_per_chunk[ci],
                frame.kept_per_chunk[ci],
            )
            works.append(
                make_map_work(
                    chunk,
                    frame.chunk_to_gpu[ci]
                    if frame.chunk_to_gpu is not None
                    else 0,
                    frame.emitted_per_chunk[ci],
                    frame.work_per_chunk[ci],
                    frame.routed_per_chunk[ci],
                )
            )
        stats.ring = self._plane.frame_stats(frame)
        if self._supervisor.active:
            stats.recovery = self._supervisor.snapshot(
                frame_retries=frame.retries, workers=self.workers
            )
        stats.telemetry = self._frame_telemetry(stats, frame)
        frame.result = InProcessResult(
            outputs=outputs,
            stats=stats,
            pairs_per_reducer=pairs_per_reducer,
            works=works,
        )
        frame.runs_per_chunk = None  # free the fragment memory
        del self._pending[frame.seq]

    def _frame_telemetry(self, stats: JobStats, frame: PendingFrame) -> dict:
        """The ``JobStats.telemetry`` registry snapshot for one frame.

        Absorbs the ad-hoc dicts that already exist (ring backpressure,
        recovery ledger) plus the pool-lifetime arena counters and the
        parent's acceleration-cache hit rates into one flat, uniformly
        named metrics payload (see :mod:`repro.observability.metrics`).
        """
        from ..render.accel import shared_cache

        return build_job_telemetry(
            ring=stats.ring,
            recovery=stats.recovery,
            arena={
                "publishes": self._arena_publishes,
                "published_bytes": self._arena_bytes_published,
                "rebroadcasts": self._arena_rebroadcasts,
            },
            cache=shared_cache().stats(),
            workers=self.workers,
            reduce_mode=self.reduce_mode,
            shuffle_mode=self.effective_shuffle_mode,
            pipeline_depth=self.pipeline_depth,
            frame_seq=frame.seq,
            kernel_backend=self.kernel or "unpinned",
            kernel_warmups=self._kernel_warmups,
            **map_telemetry(frame.work_per_chunk),
        )

    def _execute_serial(
        self,
        spec: MapReduceSpec,
        chunks: Sequence[Chunk],
        chunk_to_gpu: Optional[Sequence[int]],
    ) -> InProcessResult:
        """Deterministic fallback: the serial executor *is* the same code.

        ``InProcessExecutor.execute`` is built from the identical
        ``map_chunk_to_runs`` / ``merge_partition_runs`` functions the
        workers and the parent merge run, so delegating to it is the
        fallback path — equivalence by construction, not by mirroring.
        """
        return InProcessExecutor(self.config).execute(spec, chunks, chunk_to_gpu)
