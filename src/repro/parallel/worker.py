"""Pool worker: the per-"GPU" Map → shuffle-out → shuffle-in → Reduce
state machine.

Each worker is the multiprocess stand-in for one of the paper's GPUs.
At startup it (optionally) pins itself to its assigned core, then — on
the mesh shuffle plane — allocates its *inbound* edge rings (after
pinning, so first touch lands on the local node) and reports their
names to the parent.  Its loop then consumes control messages from a
per-worker task queue:

``("arena", ArenaSpec|None)``
    (Re)attach the published chunk/transfer-function arena.
``("mesh_attach", {peer: ring name})``
    Attach to every peer's inbound edge (this worker's outbound row of
    the N×N mesh).  Sent once, before any frame.
``("socket_attach", {peer: address})``
    The socket-plane analogue: connect to every peer's listener (see
    :mod:`repro.parallel.socketplane`).  Sent once, after the parent
    has collected every worker's ``socket_ready`` address.
``("frame", bytes)``
    Pickled :class:`FrameContext` parts for the next frame — mapper,
    partitioner, combiner, reducer, KV spec, key bound, chunk count.
    The transfer-function table is *not* in the pickle: it lives in the
    arena and is rebound here (the paper's "static data uploaded once
    per device").
``("map", frame_seq, chunk_index, chunk_id, nbytes, on_disk, meta, payload)``
    Run Map + Partition for one chunk: ray-cast (or any user mapper),
    validate, discard placeholders, combine, bucket by reducer.
    ``payload`` is ``None`` for workers on host 0 (the chunk is mapped
    zero-copy from the arena) and the chunk's ndarray for off-host
    workers, whose "host" has no shared segment.  The ``map`` messages
    of the same frame that are already queued behind this one are
    drained with it and mapped launch by launch (the mapper's
    ``launch_sizes``; one ``map:chunks=a-b`` span each) — a fused
    ray-cast launch costs far less than its chunks launched one by
    one — while everything downstream stays per chunk.  **Shuffle-out**
    follows each launch: on the parent-routed plane the bucketed runs
    stream up this worker's uplink ring (counters travel on the result
    queue); on the direct planes (mesh edges / socket streams) each
    partition's run goes *directly* to the owning worker, tagged
    ``(frame, chunk, partition)`` — the parent sees counters only.
``("mesh_relay", frame_seq, chunk_index, partition, run)``
    An oversized record another mapper could not fit through its edge,
    relayed by the parent (control-plane escape hatch).  Stashed like
    any other inbound record; arrives before the frame's reduce
    message by queue order.
``("reduce", frame_seq, owned_partitions, runs_per_chunk|None)``
    Run Sort + Reduce for this worker's *owned* reducer partitions —
    the paper's symmetric half, where the same devices that mapped also
    reduce.  On the parent-routed plane ``runs_per_chunk`` holds the
    chunk-ordered runs (renumbered ``0..n-1``); on the mesh plane it is
    ``None`` and **shuffle-in** happens here: the worker drains its
    inbound edges until frame ``seq``'s completion watermark
    (``n_chunks × owned`` records, empty runs included) is reached,
    restores chunk order from the record tags, and executes the
    **literal** :func:`~repro.core.executors.merge_partition_runs` the
    parent would have run, shipping back composited per-partition
    ``(keys, values)`` outputs instead of raw fragments.
``("stop",)``
    Detach everything and exit.

Determinism: the map and reduce kernels are pure NumPy, so a chunk's
fragment runs — and a partition's reduced spans — are bitwise-identical
wherever they execute; chunk order (for runs) and partition order (for
reduced outputs) are restored from explicit tags, never from arrival
order, so both shuffle planes match
:class:`~repro.core.executors.InProcessExecutor` exactly.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_mod
import signal
import traceback
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from ..core.chunk import Chunk
from ..core.executors import (
    PartitionReduceSpec,
    ShuffleSpec,
    map_chunk_to_runs,
    map_chunks_to_runs,
    map_span_name,
    merge_partition_runs,
)
from ..core.job import MapReduceSpec
from ..observability.tracer import (
    current_tracer,
    disable_tracing,
    enable_tracing,
    span,
)
from .faults import FaultPlan
from .ring import ShmRing
from .shm import ArenaSpec, ArenaView
from .shuffle import DEFAULT_RING_WRITE_TIMEOUT, WorkerMesh
from .socketplane import SocketMesh

__all__ = [
    "FrameContext",
    "map_chunk_to_runs",
    "worker_main",
    "TF_ARENA_KEY",
]

#: Arena key under which the transfer-function table is published.
TF_ARENA_KEY = "__tf_table__"


@dataclass
class FrameContext:
    """Everything a worker needs to map — and reduce — chunks of one frame."""

    mapper: Any
    partitioner: Any
    combiner: Any
    reducer: Any
    kv: Any
    max_key: int
    n_reducers: int
    n_chunks: int = 0  # mesh watermark: records/partition expected per frame
    tf_ref: Optional[tuple] = None  # (vmin, vmax) when the table is in the arena

    @classmethod
    def from_spec(
        cls,
        spec: MapReduceSpec,
        include_reducer: bool = False,
        n_chunks: int = 0,
    ) -> "FrameContext":
        # The reducer rides along only when workers will actually reduce
        # (reduce_mode="worker"); parent-mode jobs keep working even with
        # reducers that cannot be pickled.
        return cls(
            mapper=spec.mapper,
            partitioner=spec.partitioner,
            combiner=spec.combiner,
            reducer=spec.reducer if include_reducer else None,
            kv=spec.kv,
            max_key=spec.max_key,
            n_reducers=spec.n_reducers,
            n_chunks=int(n_chunks),
        )

    def rebind_tf(self, view: ArenaView) -> None:
        """Re-attach the mapper's transfer function from the arena."""
        if self.tf_ref is None:
            return
        from ..render.transfer import TransferFunction1D

        vmin, vmax = self.tf_ref
        self.mapper.tf = TransferFunction1D(
            table=view.array(TF_ARENA_KEY), vmin=vmin, vmax=vmax
        )


# map_chunks_to_runs is the *same function* the in-process executor runs
# (repro.core.executors) — a FrameContext duck-types for the spec — so a
# worker's runs are bitwise-identical to serial execution by construction.


def _pin_to_core(pin_cpu: Optional[int]) -> None:
    """Pin this worker to its assigned core (best effort).

    The parent already validated availability and emitted the warning
    when pinning was requested but impossible, so failures here (cores
    taken offline between spawn and pin) silently fall back to the
    unpinned scheduler placement rather than killing the worker.
    """
    if pin_cpu is None:
        return
    try:
        os.sched_setaffinity(0, {int(pin_cpu)})
    except (AttributeError, OSError):  # pragma: no cover - platform dependent
        pass


def _handle_maps(
    worker_id: int,
    ctx: FrameContext,
    view: ArenaView,
    ring: ShmRing,
    mesh,  # WorkerMesh | SocketMesh | None (duck-typed)
    write_timeout: float,
    result_queue,
    msgs: Sequence[tuple],
    faults: Optional[FaultPlan] = None,
    flush_spans=None,
) -> None:
    """Run a batch of one frame's map tasks, shuffling each chunk out.

    ``msgs`` are consecutive ``map`` messages of one frame.  The mapper
    cuts them into launches (``launch_sizes``); each launch is mapped by
    the literal :func:`~repro.core.executors.map_chunks_to_runs` under
    one ``map:`` span, then every chunk of it takes the per-chunk path
    it always took: shuffle-out, span flush, ``done`` — in chunk order,
    so the parent, the supervisor and the record protocol cannot tell a
    batch from the same tasks run one by one.

    Mesh plane: one record per ``(chunk, partition)`` straight to the
    owner's inbound edge (oversized records fall back through the
    parent queue and are counted).  Parent plane: raw run bytes stream
    up the uplink ring, with the whole chunk falling back inline on the
    result queue when it outgrows the ring.  Either way the "done"
    message carries only counters.
    """
    seq = msgs[0][1]
    what = f"map of chunk {msgs[0][2]}"
    try:
        chunks = [
            Chunk(
                id=chunk_id,
                nbytes=nbytes,
                # Off-host workers get the chunk bytes in the message
                # (no shared segment on their "host"); everyone else
                # maps the arena zero-copy.
                data=payload if payload is not None else view.array(chunk_id),
                on_disk=on_disk,
                meta=meta,
            )
            for _, _, _, chunk_id, nbytes, on_disk, meta, payload in msgs
        ]
        lo = 0
        for size in ctx.mapper.launch_sizes(chunks):
            cis = [m[2] for m in msgs[lo : lo + size]]
            what = f"map of chunks {cis[0]}-{cis[-1]}"
            with span(
                map_span_name(cis[0], cis[-1]), cat="map", frame=seq, chunks=cis
            ):
                if faults is not None:
                    for ci in cis:
                        faults.fire("map", worker_id, seq, chunk=ci)
                results = map_chunks_to_runs(ctx, chunks[lo : lo + size])
            lo += size
            for ci, result in zip(cis, results):
                what = f"map of chunk {ci}"
                _shuffle_out(
                    worker_id, ctx, ring, mesh, write_timeout, result_queue,
                    seq, ci, result, faults, flush_spans,
                )
            if mesh is not None:
                # Between launches, as between tasks: keep the inbound
                # edges moving so a peer shuffling to us never wedges on
                # the length of our batch.
                mesh.poll()
    except Exception as exc:
        # The exception class name rides along so the parent can tell
        # transport wedging (RingTimeout -> recoverable) from a bug in
        # user code (fatal) without parsing the traceback text.
        if flush_spans is not None:
            flush_spans()  # the failed task's spans still reach the trace
        result_queue.put(
            (
                "error",
                worker_id,
                what,
                traceback.format_exc(),
                type(exc).__name__,
            )
        )


def _shuffle_out(
    worker_id: int,
    ctx: FrameContext,
    ring: ShmRing,
    mesh,
    write_timeout: float,
    result_queue,
    seq: int,
    ci: int,
    result: tuple,
    faults: Optional[FaultPlan],
    flush_spans,
) -> None:
    """Shuffle one mapped chunk's runs out and report it ``done``."""
    runs, emitted, kept, work, routed = result
    with span("shuffle-out", cat="shuffle", frame=seq, chunk=ci) as sp:
        if faults is not None:
            faults.fire("shuffle-out", worker_id, seq, chunk=ci)
        fallbacks = 0
        if mesh is not None:
            # Shuffle-out over the mesh/sockets: run bytes never
            # touch the parent.
            shuf = ShuffleSpec(ctx.n_reducers, mesh.n_workers)
            wire_base = getattr(mesh, "bytes_sent", None)
            for part, run in enumerate(runs):
                run = np.ascontiguousarray(run)
                if not mesh.send(seq, ci, part, run, shuf.owner_of(part)):
                    # Record too large for its edge: relay through the
                    # parent's control plane rather than deadlock.
                    # (Shm edges only — socket sends always succeed.)
                    result_queue.put(
                        ("mesh_fallback", worker_id, seq, ci, part, run)
                    )
                    fallbacks += 1
            inline = None
            # On the socket plane the completion message's byte
            # field reports this map's bytes-on-wire (headers
            # included, self-owned runs excluded); the shm mesh
            # keeps reporting 0 here — its traffic counters live in
            # the edge rings the parent already holds.
            ring_nbytes = (
                mesh.bytes_sent - wire_base if wire_base is not None else 0
            )
        else:
            total = int(sum(run.nbytes for run in runs))
            if total <= ring.capacity:
                # Fast path: stream raw run bytes through the ring
                # (reducer order), publish only counts on the queue.
                for run in runs:
                    if len(run):
                        ring.write_bytes(
                            np.ascontiguousarray(run),
                            timeout=write_timeout,
                        )
                inline = None
                ring_nbytes = total
            else:
                # A single chunk outgrew the ring: fall back to the
                # (pickling) queue rather than deadlock.
                inline = np.concatenate(runs) if kept else None
                ring_nbytes = 0
                fallbacks = 1
        sp.set(bytes=ring_nbytes, fallbacks=fallbacks)
    if flush_spans is not None:
        flush_spans()
    result_queue.put(
        (
            "done",
            worker_id,
            seq,
            ci,
            emitted,
            kept,
            work,
            routed.tolist(),
            ring_nbytes,
            inline,
            fallbacks,
        )
    )


def _handle_reduce(
    worker_id: int,
    ctx: FrameContext,
    mesh,  # WorkerMesh | SocketMesh | None (duck-typed)
    result_queue,
    msg: tuple,
    faults: Optional[FaultPlan] = None,
    flush_spans=None,
) -> None:
    """Sort + Reduce this worker's owned partitions for one frame.

    Runs the literal parent-side :func:`merge_partition_runs` over a
    :class:`PartitionReduceSpec` view in which the owned partitions are
    renumbered ``0..n-1`` — bitwise parity with parent-side reduce by
    construction.  On the mesh plane the runs payload is ``None`` and
    shuffle-in happens here: drain inbound edges to the frame's
    watermark, then restore chunk order from the record tags.
    """
    _, seq, owned, runs_per_chunk = msg
    try:
        if faults is not None:
            faults.fire("shuffle-in", worker_id, seq)
        if runs_per_chunk is None:
            # Shuffle-in proper: take_frame records the span around the
            # watermark drain (parent-plane runs arrive with the message,
            # so there is no wait to trace on that plane).
            runs_per_chunk = mesh.take_frame(
                seq, owned, ctx.n_chunks, ctx.kv.dtype
            )
        if faults is not None:
            faults.fire("reduce", worker_id, seq)
        ctx.reducer.initialize()
        view = PartitionReduceSpec(
            n_reducers=len(owned),
            kv=ctx.kv,
            max_key=ctx.max_key,
            reducer=ctx.reducer,
            partition_labels=owned,  # spans name the job-level partition
            frame_seq=seq,
        )
        outputs, pairs_per_reducer = merge_partition_runs(view, runs_per_chunk)
        if flush_spans is not None:
            flush_spans()
        if isinstance(mesh, SocketMesh):
            # Socket traffic counters live worker-side (the parent holds
            # no data sockets): ship a cumulative snapshot strictly
            # before the reduce result it describes (FIFO queue), so the
            # plane's frame_stats always covers this frame's traffic.
            result_queue.put(("shuffle_stats", worker_id, mesh.counters()))
        result_queue.put(
            ("reduced", worker_id, seq, owned, outputs, pairs_per_reducer)
        )
    except Exception as exc:
        if flush_spans is not None:
            flush_spans()
        result_queue.put(
            (
                "error",
                worker_id,
                f"reduce of partitions {owned}",
                traceback.format_exc(),
                type(exc).__name__,
            )
        )


def _next_message(task_queue, mesh, pending: list):
    """Block for the next control message, draining the mesh meanwhile.

    ``pending`` is the one-slot buffer of :func:`_drain_maps` (the
    message it had to pop to see that a batch had ended); it is served
    first.

    An idle worker (done mapping, waiting for its reduce message) must
    keep consuming its inbound edges, or a peer still shuffling into a
    small edge would stall until this worker's reduce — which the
    parent only dispatches once *every* map completes, a distributed
    deadlock.  Polling between messages (and inside blocked writes, via
    the ring's ``on_wait`` hook) closes that window: whoever has ring
    data to move can always make progress.

    The poll interval backs off (5 ms → 100 ms) while both the edges
    and the task queue stay empty, so a pool held open between frames
    idles at ~10 wakeups per second instead of busy-polling; any
    activity snaps it back to the responsive interval.  The cap stays
    well under the edge write timeout (a tenth of it, at most), so a
    napping owner can never turn a blocked peer's normal backpressure
    into a spurious RingTimeout.
    """
    if pending:
        return pending.pop()
    if mesh is None:
        return task_queue.get()
    timeout = 0.005
    cap = max(0.005, min(0.1, mesh.write_timeout / 10.0))
    while True:
        if mesh.poll():
            timeout = 0.005
        try:
            return task_queue.get(timeout=timeout)
        except queue_mod.Empty:
            timeout = min(timeout * 2.0, cap)


def _drain_maps(task_queue, first: tuple, pending: list) -> list:
    """``first`` plus the ``map`` messages of the same frame already
    queued right behind it.

    Never waits: the batch is whatever has arrived, so its composition
    varies run to run — results cannot (every grouping of map tasks is
    bitwise the tasks run one by one).  A message that does not belong
    ends the batch and waits in ``pending`` for :func:`_next_message`.
    """
    batch = [first]
    while True:
        try:
            msg = task_queue.get_nowait()
        except queue_mod.Empty:
            return batch
        if msg[0] == "map" and msg[1] == first[1]:
            batch.append(msg)
        else:
            pending.append(msg)
            return batch


def worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    ring_name: Optional[str],
    cfg: Optional[dict] = None,
) -> None:
    """Entry point of one pool worker process.

    ``cfg`` carries the transport configuration resolved by the parent:
    ``pin_cpu`` (core to pin to, or None), ``write_timeout`` (shared by
    the uplink ring and every mesh edge), ``watermark_timeout`` (the
    mesh frame-completion bound), ``fault_plan``/``spawn_gen`` (the
    deterministic fault-injection plan and this process's spawn
    generation — see :mod:`repro.parallel.faults`), ``kernel`` (the
    march-kernel backend to resolve and JIT-warm once at spawn; None
    skips), and — when the mesh plane is active —
    ``mesh_active``/``n_workers``/``edge_capacity``.
    Pinning happens **before** the inbound mesh edges are created so
    their pages are first-touched on the pinned core's NUMA node.
    ``ring_name`` is the uplink ring (parent-routed plane only; None on
    the mesh plane, where run bytes travel the edges instead).

    An external SIGTERM is converted to ``SystemExit`` so the
    ``finally`` teardown below still runs: the dying worker detaches
    its arena views and closes (unlinking, as creator) its own mesh
    edges instead of leaving everything to the parent's deterministic
    -name sweep.  The sweep remains the backstop for SIGKILL/crash.
    """
    cfg = cfg or {}

    def _graceful_term(signum, frame):  # pragma: no cover - signal path
        raise SystemExit(128 + int(signum))

    try:
        signal.signal(signal.SIGTERM, _graceful_term)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    _pin_to_core(cfg.get("pin_cpu"))
    # Tracing: a fresh per-process buffer when the parent traces, else
    # explicitly disabled — a fork child inherits the parent's tracer
    # object, and recording into (or shipping) that copy would be wrong
    # either way.  Spans are flushed onto the result queue immediately
    # BEFORE each task-completion message, so FIFO order guarantees the
    # parent absorbs a task's spans no later than the task itself.
    spawn_gen = int(cfg.get("spawn_gen", 0))
    if cfg.get("trace"):
        enable_tracing()
    else:
        disable_tracing()

    def flush_spans() -> None:
        tracer = current_tracer()
        if tracer is not None and tracer.events:
            result_queue.put(("spans", worker_id, spawn_gen, tracer.drain()))

    write_timeout = float(cfg.get("write_timeout", DEFAULT_RING_WRITE_TIMEOUT))
    watermark_timeout = float(cfg.get("watermark_timeout", write_timeout))
    # The plan was validated in the parent; bind this process's spawn
    # generation so rules default to firing only on the first attempt.
    faults = FaultPlan.parse(cfg.get("fault_plan"), generation=spawn_gen)
    ring = ShmRing.attach(ring_name) if ring_name is not None else None
    # Either direct-plane transport binds here; the two duck-type the
    # same poll/send/take_frame/close surface for the loop below.
    mesh = None  # WorkerMesh | SocketMesh | None
    if cfg.get("mesh_active"):
        mesh = WorkerMesh(
            worker_id,
            int(cfg["n_workers"]),
            int(cfg["edge_capacity"]),
            write_timeout,
            token=cfg.get("mesh_token"),
            watermark_timeout=watermark_timeout,
        )
        # Report the inbound edge names; the parent attaches (adopting
        # unlink duty) and broadcasts each worker its outbound row.
        result_queue.put(("mesh_ready", worker_id, mesh.inbound_names))
    elif cfg.get("socket_active"):
        mesh = SocketMesh(
            worker_id,
            int(cfg["n_workers"]),
            write_timeout,
            token=cfg.get("socket_token"),
            watermark_timeout=watermark_timeout,
            family=cfg.get("socket_family") or "unix",
        )
        # The listener exists before this report, so by the time the
        # parent broadcasts the address map every peer is connectable.
        result_queue.put(("socket_ready", worker_id, mesh.address))
    # One-time march-kernel warmup, off the frame critical path: the
    # parent pins the concrete backend it resolved, and this process
    # must provide the same one — strict resolution means a worker
    # missing the parent's backend (or failing to compile it) reports
    # an error *before* the first frame rather than rendering with a
    # divergent marcher.  The span stays buffered until the first task's
    # flush (an eager flush here would interleave with the shuffle-plane
    # handshake messages) — FIFO still lands it before the frame seals,
    # so the JIT compile is visible on the trace timeline.
    kernel_name = cfg.get("kernel")
    if kernel_name is not None:
        try:
            from ..render.kernels import resolve_kernel

            kspec = resolve_kernel(kernel_name)
            with span(
                "kernel-warmup",
                cat="kernel",
                backend=kspec.name,
                worker=worker_id,
            ):
                kspec.warmup()
        except Exception as exc:
            result_queue.put(
                (
                    "error",
                    worker_id,
                    f"kernel warmup ({kernel_name})",
                    traceback.format_exc(),
                    type(exc).__name__,
                )
            )
    view: Optional[ArenaView] = None
    ctx: Optional[FrameContext] = None
    pending: list = []  # the message a map-batch drain popped past its end
    try:
        while True:
            msg = _next_message(task_queue, mesh, pending)
            kind = msg[0]
            if kind == "stop":
                break
            elif kind == "arena":
                spec: Optional[ArenaSpec] = msg[1]
                # The previous frame context may hold views of the old
                # arena (e.g. a transfer function bound to its table);
                # drop it first so the mapping can actually unmap.  A
                # "frame" message always follows an "arena" message.
                ctx = None
                if view is not None:
                    view.close()
                view = ArenaView(spec) if spec is not None else None
            elif kind in ("mesh_attach", "socket_attach"):
                mesh.attach_row(msg[1])
            elif kind == "frame":
                ctx = pickle.loads(msg[1])
                if view is not None:
                    ctx.rebind_tf(view)
                ctx.mapper.initialize()
            elif kind == "map":
                # Task body lives in a helper so its locals (arena views,
                # fragment runs) are released as soon as it returns — the
                # final unmap in the ``finally`` below must see no views.
                _handle_maps(
                    worker_id,
                    ctx,
                    view,
                    ring,
                    mesh,
                    write_timeout,
                    result_queue,
                    _drain_maps(task_queue, msg, pending),
                    faults,
                    flush_spans,
                )
            elif kind == "mesh_relay":
                # Parent-relayed oversized record; counts toward the
                # frame watermark like any edge record.
                _, seq, ci, part, run = msg
                mesh.stash_relay(seq, ci, part, run)
            elif kind == "reduce":
                # Worker-side Sort+Reduce of the partitions this worker
                # owns; parent-plane payloads are parent-copied memory,
                # mesh payloads live in this worker's stash — neither is
                # an arena view, so both are ordering-safe w.r.t. arena
                # republish.
                _handle_reduce(
                    worker_id, ctx, mesh, result_queue, msg, faults, flush_spans
                )
            else:
                result_queue.put(
                    (
                        "error",
                        worker_id,
                        "message dispatch",
                        f"unknown message {kind!r}",
                        "RuntimeError",
                    )
                )
    finally:
        ctx = None  # release arena-backed views before unmapping
        if view is not None:
            view.close()
        if mesh is not None:
            mesh.close()
        if ring is not None:
            ring.close()
