"""The shared-memory multiprocess brick executor.

:class:`SharedMemoryPoolExecutor` runs a MapReduce job on a persistent
pool of worker processes — one worker per simulated GPU — exactly
mirroring the paper's per-GPU pipeline on real parallel hardware.  It
is a drop-in replacement for
:class:`~repro.core.executors.InProcessExecutor`: same
``execute(spec, chunks, chunk_to_gpu)`` signature, same
:class:`~repro.core.executors.InProcessResult` out, bitwise-identical
outputs and counters.

One data path, the paper's:

* **Map + Partition** on the workers: each maps the chunks placed on it
  and buckets the fragments by reducer partition.
* **Shuffle** over the N×N shared-memory edge mesh
  (:mod:`repro.parallel.shuffle`): each mapper writes a partition's runs
  *directly* into the owning worker's inbound edge, tagged ``(frame,
  chunk, partition)``.  The parent is a control plane — publish, seal,
  stitch, teardown — and touches run bytes only through the
  oversized-record relay, which it counts
  (``JobStats.ring["queue_fallbacks"]`` / ``["parent_run_bytes"]``).
* **Sort + Reduce** on the owning worker: the static
  :class:`~repro.core.executors.ShuffleSpec` contract
  (``partition % workers``) decides ownership, and the owner runs the
  literal :func:`~repro.core.executors.merge_partition_runs` over its
  chunk-ordered runs and ships back composited ``(keys, values)``
  spans.  Keys are disjoint per partition, so placement cannot change
  results.
* **Stitch** in the parent.

Frame pipelining (``pipeline_depth``):

* :meth:`submit` / :meth:`collect` split ``execute`` into an async
  half-pair; up to ``pipeline_depth`` frames may be in flight at once.
  Submitting frame *k+1* first **seals** frame *k* (drains its map
  results and dispatches its reduce tasks), so per-worker task queues
  always order ``reduce(k)`` before ``map(k+1)`` — the workers
  map+reduce frame *k+1* while the parent stitches frame *k*, the
  multiprocess analogue of the paper's §7 async-upload overlap.
  Because the next frame's arena is published at submit time, an
  out-of-core orbit's chunk loads (disk → shared memory) are also
  prefetched off the previous frame's critical path.
  ``pipeline_depth=1`` (default) degenerates to fully synchronous
  per-frame execution.  Results are bitwise-independent of the depth:
  mesh records carry their frame seq and reduced outputs are assembled
  in partition order, never in completion order.

Downlink: every chunk payload and the transfer-function table are
published once into a shared-memory arena (:mod:`repro.parallel.shm`);
workers map them zero-copy.  The arena is fingerprinted on ``(volume
token, tf version, chunk ids/sizes)`` and republished only when that
changes, so an orbit's frames upload the volume exactly once — the
paper's resident-brick regime.

Supervision (always on; see :mod:`repro.parallel.supervise`):
infrastructure failures — a worker process dying mid-frame, a wedged
edge, an expired frame watermark — are detected by the parent (a death
at once: the parent waits on the result queue and every worker's
process sentinel together), the transport epoch is recycled *in place*
(the shared-memory arena survives and is re-attached by name), and the
in-flight frames are re-executed bitwise-identically.  Repeated
failures walk a degradation ladder:
:data:`~repro.parallel.shuffle.MAX_FRAME_RETRIES` attempts per frame
per pool width, then the pool shrinks by one worker (ownership
re-derives from the same static ``partition % workers`` rule), and at
the floor the remaining frames run on the in-process executor — an
infrastructure failure degrades throughput, never correctness and
never an exception.
User-code errors stay fatal: they tear the pool down and propagate.
:mod:`repro.parallel.faults` provides the deterministic fault-injection
harness (``fault_plan``) that drives all of this in tests and CI.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import threading
import time
import uuid
import weakref
from multiprocessing.connection import wait as wait_ready
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.chunk import Chunk
from ..core.executors import (
    InProcessExecutor,
    InProcessResult,
    MapWork,
    ShuffleSpec,
    make_map_work,
    map_telemetry,
)
from ..core.job import MapReduceSpec
from ..core.stats import JobStats
from ..observability.metrics import build_job_telemetry
from ..observability.tracer import current_tracer, span
from .ring import ShmRing
from .shm import ShmArena
from . import shuffle
from .faults import FaultPlan
from .shuffle import edge_capacity, mesh_edge_name, mesh_fd_headroom
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
    "SharedMemoryPoolExecutor",
    "check_modes",
    "default_pool_workers",
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


_REMOVED_MODES = {
    ("reduce_mode", "parent"): "the pool Sort+Reduces each partition on "
    "the worker that owns it; only 'worker' is accepted",
    ("shuffle_mode", "parent"): "fragments travel the shared-memory mesh "
    "only; only 'auto' and 'mesh' are accepted",
    ("shuffle_mode", "tcp"): "the socket plane is gone; fragments travel "
    "the shared-memory mesh only; only 'auto' and 'mesh' are accepted",
}


def check_modes(reduce_mode: str = "worker", shuffle_mode: str = "auto") -> None:
    """Validate the pool's two vestigial mode parameters.

    The pool has one data path (mesh shuffle, worker-side reduce), so
    ``reduce_mode`` accepts only ``"worker"`` and ``shuffle_mode`` only
    ``"auto"`` or ``"mesh"``.  Both parameters stay only until the
    benchmark harness stops passing them (ROADMAP item 1(d)); a removed
    value raises ``ValueError`` naming the removal.
    """
    for name, value, accepted in (
        ("reduce_mode", reduce_mode, ("worker",)),
        ("shuffle_mode", shuffle_mode, ("auto", "mesh")),
    ):
        if value in accepted:
            continue
        why = _REMOVED_MODES.get((name, value))
        if why is not None:
            raise ValueError(f"{name}={value!r} was removed: {why}")
        raise ValueError(f"unknown {name} {value!r}")


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
        arena = state.pop("arena", None)
        if arena is not None:
            arena.close()


class PendingFrame:
    """Handle for one in-flight frame of the pool pipeline.

    Opaque to callers: pass it back to
    :meth:`SharedMemoryPoolExecutor.collect` to obtain the frame's
    :class:`~repro.core.executors.InProcessResult`.  The executor keeps
    the frame's partial state (per-chunk counters, per-partition reduced
    outputs) here while later frames are submitted.
    """

    __slots__ = (
        "seq",
        "spec",
        "chunks",
        "chunk_to_gpu",
        "n",
        "emitted_per_chunk",
        "kept_per_chunk",
        "work_per_chunk",
        "routed_per_chunk",
        "map_received",
        "queue_fallbacks",
        "parent_run_bytes",
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
        self.n = len(self.chunks)
        self.result = result
        self.retries = 0  # recovery re-executions of this frame so far
        self._reset()

    def _reset(self) -> None:
        n = self.n
        self.emitted_per_chunk = [0] * n
        self.kept_per_chunk = [0] * n
        self.work_per_chunk: list = [None] * n
        self.routed_per_chunk: list = [None] * n
        self.map_received = 0
        self.queue_fallbacks = 0
        self.parent_run_bytes = 0  # relayed run bytes that crossed the parent
        self.sealed = False
        self.outputs: list = [None] * self.spec.n_reducers
        self.pairs_per_reducer = np.zeros(self.spec.n_reducers, dtype=np.int64)
        self.reduced_received = 0

    @property
    def done(self) -> bool:
        return self.result is not None

    def reset_for_retry(self) -> None:
        """Rewind every partial counter so the frame can be re-executed.

        The supervisor calls this before replaying the frame on a fresh
        transport epoch: all map results and reduced spans drain from
        the *new* processes, so nothing from the failed attempt may be
        left behind to double-count.  Chunks and spec are retained (the
        handle stays valid), only progress is discarded.
        """
        self._reset()
        self.retries += 1


class SharedMemoryPoolExecutor:
    """Fan brick map and reduce work out across a pool of workers.

    Parameters
    ----------
    workers:
        Pool size (defaults to the number of usable cores).  The
        renderer passes its simulated-GPU count so placement maps one
        worker per GPU.
    pipeline_depth:
        Max frames in flight for :meth:`submit`/:meth:`collect`; 1
        means fully synchronous.  ``execute`` is unaffected by values
        > 1 unless frames are also submitted asynchronously.
    reduce_mode, shuffle_mode:
        Vestigial: the pool has one data path, so only
        ``reduce_mode="worker"`` and ``shuffle_mode`` ``"auto"`` or
        ``"mesh"`` are accepted (see :func:`check_modes`).  They stay
        only until the benchmark harness stops passing them (ROADMAP
        item 1(d)).
    fault_plan:
        Deterministic fault-injection plan for the workers (see
        :mod:`repro.parallel.faults` for the grammar), parsed here so a
        typo raises ``ValueError`` before any process starts.  Testing
        hook — production pools leave it unset.

    Everything else is a constant of :mod:`repro.parallel.shuffle` —
    edge size, ring-write and watermark timeouts, retry budget and
    backoff — read once here and shipped to every worker.  Recovery is
    always on: infrastructure failures (a dead worker, a wedged edge)
    recycle the transport epoch and re-execute the in-flight frames
    bitwise-identically; user-code exceptions tear the pool down and
    propagate, because retrying a deterministic bug only reproduces it.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        pipeline_depth: int = 1,
        reduce_mode: str = "worker",
        shuffle_mode: str = "auto",
        fault_plan: Optional[str] = None,
    ):
        if workers is None:
            workers = usable_cores()
        if workers < 1:
            raise ValueError("need at least one worker")
        check_modes(reduce_mode, shuffle_mode)
        if pipeline_depth < 1:
            raise ValueError("pipeline depth must be at least 1")
        # Parsed here so a typo raises before any process starts; each
        # worker re-parses it bound to its spawn generation.  A blank
        # plan parses to None: no injection.
        plan = FaultPlan.parse(fault_plan)
        self.fault_plan = fault_plan.strip() if plan is not None else None
        self.workers = int(workers)
        # The parent attaches all N(N-1) edges; on many-core hosts that
        # can blow through the fd soft limit mid-handshake.  Fail fast
        # with a fix instead of a confusing EMFILE from deep inside it.
        fits, needed, soft = mesh_fd_headroom(self.workers)
        if not fits:
            raise ValueError(
                f"a {self.workers}-worker mesh needs ~{needed} file "
                f"descriptors in the parent but the soft RLIMIT_NOFILE is "
                f"{soft}; raise the limit (ulimit -n) or reduce workers"
            )
        self.pipeline_depth = int(pipeline_depth)
        self.mesh_edge_capacity = edge_capacity(self.workers)
        self.ring_write_timeout = shuffle.RING_WRITE_TIMEOUT
        self.watermark_timeout = shuffle.WATERMARK_TIMEOUT
        self.max_frame_retries = shuffle.MAX_FRAME_RETRIES
        self.retry_backoff = shuffle.RETRY_BACKOFF
        self._supervisor = PoolSupervisor()
        self._spawn_gen = 0  # spawn waves so far; fault rules key on it
        self._degraded_serial = False  # ladder hit the floor: in-process only
        self._arena_rebroadcast = False  # fresh wave must re-attach arena
        # Cumulative arena traffic, exported via JobStats.telemetry: how
        # many times the downlink actually re-uploaded vs. re-attached.
        self._arena_publishes = 0
        self._arena_bytes_published = 0
        self._arena_rebroadcasts = 0
        # Fork where the platform has it; spawn is the only start
        # method on some platforms.
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._state: dict = {}
        self._arena_fingerprint = None
        self._result_queue = None
        self._seq = 0
        self._pending: dict[int, PendingFrame] = {}  # insertion-ordered
        self._edge_base: Dict[tuple, dict] = {}  # edge counters at last collect
        self._finalizer = weakref.finalize(self, _cleanup, self._state)

    # -- lifecycle ---------------------------------------------------------
    @property
    def running(self) -> bool:
        return bool(self._state.get("procs"))

    @property
    def effective_shuffle_mode(self) -> str:
        """The plane that carries run bytes — always ``"mesh"``, what
        ``JobStats.ring["shuffle_mode"]`` reports too."""
        return "mesh"

    def _ensure_started(self) -> None:
        if self.running:
            return
        # The whole fork tree must share ONE resource tracker: segment
        # bookkeeping pairs a register in one process with an unregister
        # in another (worker-created mesh edges are unlinked by whoever
        # gets there first — see shm.py's tracker note).  Children only
        # inherit a tracker that is already running, and the parent
        # forks before creating any segment of its own, so start it
        # explicitly or every process lazily spawns its own tracker and
        # each warns about phantom "leaks" at exit.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker is an optimization
            pass
        task_queues = [self._ctx.Queue() for _ in range(self.workers)]
        self._result_queue = self._ctx.Queue()
        # Deterministic edge names, recorded before any worker exists:
        # teardown can unlink every edge a worker may have created even
        # if it dies before the handshake completes.
        mesh_token = uuid.uuid4().hex[:12]
        self._state["mesh_edge_names"] = [
            mesh_edge_name(mesh_token, i, j)
            for i in range(self.workers)
            for j in range(self.workers)
            if i != j
        ]
        spawn_gen = self._spawn_gen
        self._spawn_gen += 1
        # Load (or, on a cold cache, build) the C march before forking:
        # every worker inherits it and none pays a build or a dlopen.
        from ..render.kernels import resolve

        resolve()
        procs = []
        for wi in range(self.workers):
            cfg = {
                "write_timeout": self.ring_write_timeout,
                "watermark_timeout": self.watermark_timeout,
                "n_workers": self.workers,
                "edge_capacity": self.mesh_edge_capacity,
                "mesh_token": mesh_token,
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
            }
            p = self._ctx.Process(
                target=worker_main,
                args=(wi, task_queues[wi], self._result_queue, cfg),
                daemon=True,
                name=f"repro-pool-{wi}",
            )
            p.start()
            procs.append(p)
        self._state.update(procs=procs, task_queues=task_queues)
        self._mesh_handshake()

    def _mesh_handshake(self) -> None:
        """Collect every worker's inbound-edge names (created worker-side),
        attach to all N×N edges with unlink ownership, and broadcast
        each worker its outbound row.  Raises — tearing the
        pool down — if a worker dies or misbehaves before the mesh is
        up."""
        n = self.workers
        inbound: Dict[int, Dict[int, str]] = {}
        while len(inbound) < n:
            msg = self._recv()
            if msg is None:
                continue
            kind = msg[0]
            if kind == "error":
                _, wi, what, tb, etype = msg
                raise worker_error_to_exception(wi, what, tb, etype)
            if kind != "mesh_ready":  # pragma: no cover - protocol violation
                raise RuntimeError(
                    f"unexpected {kind!r} message during the mesh handshake"
                )
            _, wi, names = msg
            inbound[wi] = names
        edges: Dict[tuple, ShmRing] = {}
        for j, names in inbound.items():
            for i, name in names.items():
                # owner=True: the parent adopts unlink duty so a worker
                # crash cannot leak the segment.
                edges[(i, j)] = ShmRing.attach(name, owner=True)
        self._state["mesh_edges"] = edges
        for i in range(n):
            row = {j: inbound[j][i] for j in range(n) if j != i}
            self._state["task_queues"][i].put(("mesh_attach", row))
        self._edge_base = {key: r.counters() for key, r in edges.items()}

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

    def _teardown_transport(self, join_timeout: float = 1.0) -> None:
        """Recycle the transport epoch, *keeping* the published arena.

        Recovery's fault domain is the whole transport — processes,
        queues, mesh edges — because SPSC cursor state cannot be
        rewound for a single lost peer.  The arena is popped around the
        sweep so the expensive brick/TF segments survive; the
        fingerprint stays valid, so replay re-publishes nothing and the
        fresh wave re-attaches by name.  ``join_timeout`` is short: a
        worker wedged or stalled by a fault will never drain
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
        self._absorb_stray_spans()
        self._result_queue = None

    def _absorb_stray_spans(self) -> None:
        """Keep the failed epoch's work on the timeline.

        A death is noticed the moment it happens, usually before the
        surviving workers' span buffers reach the parent; they flush
        them onto the result queue before exiting, so once the epoch is
        torn down everything left there is read, and only the spans are
        kept."""
        tracer = current_tracer()
        q = self._result_queue
        if tracer is None or q is None:
            return
        while True:
            try:
                msg = q.get_nowait()
            except (queue_mod.Empty, OSError, EOFError):
                return
            if msg[0] == "spans":
                tracer.add_remote(msg[1], msg[2], msg[3])

    # -- supervision & recovery --------------------------------------------
    def _run_pipeline_op(self, op, serial_fallback):
        """Run one pipeline operation under the supervisor.

        ``op`` is a re-runnable closure (a submit enqueue or a collect
        drain).  On an *infrastructure* failure — dead worker, wedged
        transport — the supervisor recycles the transport epoch and
        replays the in-flight frames, then ``op`` is retried against
        the fresh pool.  On any other exception (user code, interrupt,
        protocol violation): full teardown, propagate.  When the degradation ladder bottoms out in
        in-process execution, ``serial_fallback`` produces the
        operation's result without any pool at all.
        """
        while True:
            try:
                return op()
            except BaseException as exc:
                failure = classify_failure(exc)
                if failure is None:
                    # Leftover edge bytes or queue messages from a
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
        frames through the in-process executor — the pipeline
        *degrades*, it never errors, for infrastructure failures.
        Exponential backoff between attempts gives a transiently sick
        host (OOM-killer sweeps, cgroup pressure) room to breathe.
        """
        attempt = 0
        while True:
            self._supervisor.record_failure(failure)
            frames = [f for f in self._pending.values() if not f.done]
            # Recycle the whole transport epoch: processes, queues,
            # edges.  The arena survives (see _teardown_transport).
            self._teardown_transport()
            spent = max((f.retries for f in frames), default=attempt)
            if spent >= self.max_frame_retries:
                if self.workers > 1:
                    old = self.workers
                    self.workers = old - 1
                    self.mesh_edge_capacity = edge_capacity(self.workers)
                    self._supervisor.record_degraded(old, self.workers)
                    for f in frames:
                        f.retries = 0  # fresh budget at the new width
                else:
                    # The ladder's floor: no healthy width left.  The
                    # in-process executor is the identical algorithm with
                    # no transport to fail, so finish the frames there.
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
            self._enqueue_frame(f)
            self._seal(f)
        self._supervisor.record_reexecuted(len(frames))

    def __enter__(self) -> "SharedMemoryPoolExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- data publication --------------------------------------------------
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
        task_queues = self._state["task_queues"]
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
                    for q in task_queues:
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
            for q in task_queues:
                q.put(("arena", arena.spec))
            old = self._state.get("arena")
            if old is not None:
                old.close()  # attached workers keep the memory alive until
            self._state["arena"] = arena  # they process the new-arena message
        self._arena_fingerprint = sig
        self._arena_rebroadcast = False  # fresh spec reached every queue
        self._arena_publishes += 1
        self._arena_bytes_published += nbytes

    def _frame_payload(self, spec: MapReduceSpec, n_chunks: int) -> bytes:
        """Pickle the frame context for the workers.

        The TF table is stripped (it travels via shared memory;
        ``tf_ref`` tells the worker to rebind the arena view).
        ``n_chunks`` rides along so reducers know each frame's
        completion watermark without another control message.
        """
        ctx = FrameContext.from_spec(spec, n_chunks=n_chunks)
        tf = getattr(spec.mapper, "tf", None)
        if tf is not None and getattr(tf, "version", None) is not None:
            ctx.tf_ref = (tf.vmin, tf.vmax)
            try:
                spec.mapper.tf = None  # table travels via shared memory
                return pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL)
            finally:
                spec.mapper.tf = tf
        return pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL)

    def _enqueue_frame(self, frame: PendingFrame) -> None:
        """Publish ``frame``'s arena and enqueue its context and map tasks;
        ``chunk_to_gpu`` doubles as worker placement (modulo pool size)."""
        self._publish(frame.spec, frame.chunks)
        task_queues = self._state["task_queues"]
        payload = self._frame_payload(frame.spec, frame.n)
        for q in task_queues:
            q.put(("frame", payload))
        for ci, chunk in enumerate(frame.chunks):
            wi = (
                int(frame.chunk_to_gpu[ci])
                if frame.chunk_to_gpu is not None
                else ci
            ) % self.workers
            task_queues[wi].put(
                ("map", frame.seq, ci, chunk.id, chunk.nbytes, chunk.on_disk,
                 chunk.meta)
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

        Failure semantics: an infrastructure failure — a dead worker, a
        wedged transport — recycles the transport epoch in place,
        replays the in-flight frames, and retries; user-code errors
        tear the whole pool down on the way out, because leftover edge
        bytes or queue messages from a partially-drained frame must
        never be paired with a later frame's chunks.
        """

        def serial() -> PendingFrame:
            result = self._execute_serial(spec, chunks, chunk_to_gpu)
            if self._degraded_serial and self._supervisor.active:
                result.stats.recovery = self._supervisor.snapshot(workers=0)
            self._seq += 1
            return PendingFrame(
                self._seq, spec, chunks, chunk_to_gpu, result=result
            )

        if self._degraded_serial or len(chunks) == 0:
            # Zero chunks means nothing to fan out (and nothing to put in
            # an arena); the in-process executor returns the same
            # empty-job result.  A pool degraded to the floor routes
            # every subsequent frame here too.
            return serial()
        ids = [c.id for c in chunks]
        if len(set(ids)) != len(ids):
            raise ValueError("chunk ids must be unique for the pool executor")

        def op() -> PendingFrame:
            self._ensure_started()
            for f in list(self._pending.values()):
                self._seal(f)
            while len(self._pending) >= self.pipeline_depth:
                self._collect_oldest()
            frame = PendingFrame(self._seq + 1, spec, chunks, chunk_to_gpu)
            self._enqueue_frame(frame)
            # Register (and burn the seq) only once every message is
            # enqueued: if anything above failed, the partial messages
            # died with the recycled transport and op re-runs cleanly
            # from scratch without replaying a half-submitted frame.
            self._seq += 1
            self._pending[frame.seq] = frame
            return frame

        return self._run_pipeline_op(op, serial)

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
            # If recovery bottoms out in in-process execution, _recover
            # has already finished every pending frame (including this
            # one), so the fallback has nothing left to do.
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
        all map results drained and every owner told to reduce.  The
        runs are already in (or relayed ahead of the reduce message
        toward) the owners' inbound edges, so this is control plane
        only."""
        if frame.sealed:
            return
        while frame.map_received < frame.n:
            self._pump()
        shuf = ShuffleSpec(frame.spec.n_reducers, self.workers)
        for wi, q in enumerate(self._state["task_queues"]):
            owned = shuf.owned_partitions(wi)
            if owned:
                q.put(("reduce", frame.seq, owned))
        frame.sealed = True

    def _recv(self, timeout: float = 1.0):
        """One result-queue message, or None after ``timeout``.

        Waits on the queue's reader and every worker's process sentinel
        together, so a worker death surfaces the moment it happens
        rather than after a poll interval.  A message that is already
        pending is always read before a death is declared: a dying
        worker's last error report wins over the bare fact of its
        death.
        """
        q = self._result_queue
        procs = self._state.get("procs", [])
        reader = q._reader  # the queue's receiving Connection
        if reader in wait_ready([reader] + [p.sentinel for p in procs], timeout):
            # One wait per message, as a plain get(timeout) would do: the
            # parent is the only reader, so this get finds its message.
            return q.get()
        dead = dead_workers(procs)
        if dead:
            names = [name for name, _ in dead]
            raise PoolFailure(
                f"pool worker(s) died during execute: {names}",
                kind="worker-death",
                workers=names,
            )
        return None

    def _pump(self) -> None:
        """Receive and route one worker message (or check for deaths)."""
        msg = self._recv()
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
            _, wi, seq, ci, emitted, kept, work, routed, fallbacks = msg
            frame = self._pending[seq]
            frame.emitted_per_chunk[ci] = emitted
            frame.kept_per_chunk[ci] = kept
            frame.work_per_chunk[ci] = work
            frame.routed_per_chunk[ci] = np.asarray(routed, dtype=np.int64)
            frame.map_received += 1
            frame.queue_fallbacks += int(fallbacks)
        elif kind == "mesh_fallback":
            # An oversized record taking the control-plane escape hatch:
            # relay it to its owner over the task queue.  Relays are
            # enqueued strictly before the frame's reduce message (the
            # sender's map completion follows its fallbacks on the FIFO
            # result queue, and sealing waits for every completion), so
            # the owner's watermark cannot hang on a record stuck
            # behind it.
            _, wi, seq, ci, part, run = msg
            frame = self._pending[seq]
            frame.parent_run_bytes += int(run.nbytes)
            owner = ShuffleSpec(frame.spec.n_reducers, self.workers).owner_of(part)
            self._state["task_queues"][owner].put(
                ("mesh_relay", seq, ci, part, run)
            )
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
        while frame.reduced_received < frame.spec.n_reducers:
            self._pump()
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
        stats.ring = self._mesh_stats(frame)
        if self._supervisor.active:
            stats.recovery = self._supervisor.snapshot(
                frame_retries=frame.retries, workers=self.workers
            )
        stats.telemetry = self._frame_telemetry(stats, frame)
        frame.result = InProcessResult(
            outputs=frame.outputs,
            stats=stats,
            pairs_per_reducer=frame.pairs_per_reducer,
            works=works,
        )
        del self._pending[frame.seq]

    def _mesh_stats(self, frame: PendingFrame) -> dict:
        """The ``JobStats.ring`` payload: per-edge backpressure deltas
        since the previous collect, high-water marks, total bytes moved
        over the mesh, and the control-plane escape hatch (queue
        fallbacks / parent-touched run bytes)."""
        per_edge = []
        total_bytes = 0
        for (i, j), ring in sorted(self._state.get("mesh_edges", {}).items()):
            now = ring.counters()
            base = self._edge_base.get((i, j), now)
            # Delta like the stall counters, so the whole dict shares
            # one windowing semantic: "since the previous collect".
            total_bytes += now["written_bytes"] - base["written_bytes"]
            per_edge.append(
                {
                    "src": i,
                    "dst": j,
                    "stall_seconds": now["stall_seconds"]
                    - base["stall_seconds"],
                    "stall_events": now["stall_events"] - base["stall_events"],
                    "high_water_bytes": now["high_water_bytes"],
                }
            )
            self._edge_base[(i, j)] = now
        return {
            "shuffle_mode": "mesh",
            "stall_seconds": sum(e["stall_seconds"] for e in per_edge),
            "stall_events": sum(e["stall_events"] for e in per_edge),
            "high_water_bytes": max(
                (e["high_water_bytes"] for e in per_edge), default=0
            ),
            "queue_fallbacks": frame.queue_fallbacks,
            "parent_run_bytes": frame.parent_run_bytes,
            "mesh_bytes_total": total_bytes,
            "ring_capacity": self.mesh_edge_capacity,
            "per_edge": per_edge,
        }

    def _frame_telemetry(self, stats: JobStats, frame: PendingFrame) -> dict:
        """The ``JobStats.telemetry`` document for one frame.

        Flattens the ad-hoc dicts that already exist (ring backpressure,
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
            reduce_mode="worker",
            shuffle_mode="mesh",
            pipeline_depth=self.pipeline_depth,
            frame_seq=frame.seq,
            **map_telemetry(frame.work_per_chunk),
        )

    def _execute_serial(
        self,
        spec: MapReduceSpec,
        chunks: Sequence[Chunk],
        chunk_to_gpu: Optional[Sequence[int]],
    ) -> InProcessResult:
        """The degradation floor: the in-process executor *is* the same code.

        ``InProcessExecutor.execute`` is built from the identical
        ``map_chunks_to_runs`` / ``merge_partition_runs`` functions the
        workers run, so delegating to it is equivalence by
        construction, not by mirroring.
        """
        return InProcessExecutor().execute(spec, chunks, chunk_to_gpu)
