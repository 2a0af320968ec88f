"""The shuffle plane: worker↔worker fragment exchange over shared memory.

The paper's GPUs exchange emitted fragments *directly* over the
interconnect during the shuffle into Sort/Reduce; the parent CPU only
orchestrates.  The pool executor does the same over an N×N mesh of SPSC
shared-memory rings (one *edge* per ordered worker pair, generalizing
:mod:`repro.parallel.ring`): each mapper writes a partition's run
**directly** into the owning reducer worker's inbound edge, tagged
``(frame, chunk index, partition)`` so the owner can restore chunk order
and execute the literal
:func:`~repro.core.executors.merge_partition_runs`.  The parent never
touches run bytes except through the oversized-record relay below,
which it counts in ``parent_run_bytes``.  Runs a mapper owns itself
short-circuit through a local stash, no copy.  Edges are created by the
*reader* worker but unlinked by the parent, preserving the zero-leak
teardown guarantee even when a worker dies mid-shuffle.

This module holds the worker half (:class:`WorkerMesh`), the pool's
transport and recovery constants, and the edge sizing, naming and fd
budget helpers; the parent half (handshake, relay, reduce dispatch,
per-frame edge counters) lives in
:class:`~repro.parallel.pool.SharedMemoryPoolExecutor`.

Mesh record protocol
--------------------
One record per ``(chunk, partition)`` — **including empty runs** — is
written to the owner's inbound edge as a single atomic ring write::

    [ 32-byte header: u64 seq | u64 chunk | u64 partition | u64 nbytes ]
    [ nbytes of raw KV pairs (the run, in emission order) ]

Because :class:`~repro.parallel.ring.ShmRing` publishes its write
cursor only after the whole copy, a reader that observes ``used >= 32``
always has a complete record available — the inbound poll never blocks.
Writing every ``(chunk, partition)`` record (empty ones are header
-only) gives the owner a deterministic **per-frame completion
watermark**: frame ``seq`` is complete exactly when ``n_chunks ×
len(owned partitions)`` records have arrived, so pipelined frames can
interleave on the wire without ever interleaving in a reduce.

Backpressure and deadlock freedom: a writer blocked on a full outbound
edge cooperatively drains its *own* inbound edges while waiting
(:meth:`WorkerMesh.poll` via the ring's ``on_wait`` hook), so a cycle
of mutually backpressured workers always makes progress.  A record too
large for its edge falls back to the parent queue (relayed to the
owner, counted in ``queue_fallbacks``) instead of deadlocking.  A
truly wedged edge (dead peer) surfaces as a
:class:`~repro.parallel.ring.RingTimeout` after
:data:`RING_WRITE_TIMEOUT` (and an incomplete frame watermark after
:data:`WATERMARK_TIMEOUT`), which hands the failure to the executor's
supervision layer (:mod:`repro.parallel.supervise`): the transport
epoch is recycled and the affected frames re-execute bitwise-identically.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..observability.tracer import span
from .ring import _POLL_SECONDS, RingTimeout, ShmRing

__all__ = [
    "MAX_FRAME_RETRIES",
    "MESH_HEADER_NBYTES",
    "RETRY_BACKOFF",
    "RING_WRITE_TIMEOUT",
    "WATERMARK_TIMEOUT",
    "WorkerMesh",
    "edge_capacity",
]

#: How long a blocked edge write may sit in backpressure before it is
#: declared wedged.  With ``pipeline_depth > 1`` a blocked write is the
#: *normal* flow-control state (the consumer is legitimately busy with
#: the previous frame), so the bound is generous; it exists only so a
#: dead peer surfaces as a RingTimeout instead of a silent hang.
RING_WRITE_TIMEOUT = 300.0

#: How long a mesh reducer waits for a frame's completion watermark
#: (``n_chunks × owned`` records) before declaring the frame's shuffle
#: wedged: the shuffle-in mirror of a blocked shuffle-out write, so it
#: shares that bound.
WATERMARK_TIMEOUT = RING_WRITE_TIMEOUT

#: How many times one in-flight frame may be re-executed after an
#: infrastructure failure before the pool sheds a worker (the
#: degradation ladder's per-width retry budget).
MAX_FRAME_RETRIES = 2

#: Base of the exponential backoff between recovery attempts, seconds.
#: Small: respawning forked workers is cheap, and the arena (the
#: expensive state) survives recovery anyway.
RETRY_BACKOFF = 0.05

#: Mesh bytes per pool, split over the workers' edges (see
#: :func:`edge_capacity`): a 2-worker pool gets 4 MiB edges.
MESH_BYTES = 8 << 20

#: Floor of one edge's size, whatever the worker count.
MIN_EDGE_BYTES = 1 << 16

#: Mesh record header: (frame seq, chunk index, partition, payload bytes).
MESH_HEADER_DTYPE = np.dtype(
    [("seq", "<u8"), ("chunk", "<u8"), ("part", "<u8"), ("nbytes", "<u8")]
)
MESH_HEADER_NBYTES = MESH_HEADER_DTYPE.itemsize  # 32


def edge_capacity(workers: int) -> int:
    """Bytes of each mesh edge ring of a ``workers``-wide pool."""
    return max(MIN_EDGE_BYTES, MESH_BYTES // max(1, int(workers)))


def mesh_fd_headroom(workers: int) -> tuple:
    """Whether the parent can afford the mesh's O(N²) attachments.

    The parent holds every edge ring open (N(N-1) ``shm_open`` fds for
    counters and crash-safe unlink) on top of per-worker queues/pipes;
    on a many-core host with the default soft ``RLIMIT_NOFILE`` of 1024
    that cliff arrives around ~30 workers.  Returns
    ``(fits, needed_estimate, soft_limit)`` — ``fits`` leaves half the
    soft limit free for the application; ``soft_limit`` is -1 when the
    limit is unknown or unlimited (always fits).
    """
    workers = int(workers)
    needed = workers * (workers - 1) + 4 * workers + 64
    try:
        import resource

        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft == resource.RLIM_INFINITY:
            return True, needed, -1
    except Exception:  # pragma: no cover - non-POSIX
        return True, needed, -1
    return needed <= soft // 2, needed, int(soft)


def mesh_edge_name(token: str, src: int, dst: int) -> str:
    """Deterministic segment name for the ``src → dst`` edge of one mesh.

    Edges are *created* by their reader worker, but the parent must be
    able to unlink every edge even when a worker dies before reporting
    anything — including during the handshake itself.
    A per-pool token plus the edge coordinates makes every name known
    to the parent in advance, so teardown never depends on a message
    that a dead worker failed to send.
    """
    return f"repro_mesh_{token}_{src}_{dst}"


# ---------------------------------------------------------------------------
# Worker half of the mesh: inbound edge ownership + outbound routing.
# ---------------------------------------------------------------------------
class WorkerMesh:
    """One worker's view of the N×N edge mesh.

    Owns this worker's **inbound** edges (created here; the parent
    adopts unlink duty) and attaches to the **outbound** edges other
    workers created, once the parent broadcasts the name matrix.

    Incoming records are drained opportunistically (:meth:`poll` never
    blocks — complete records only, see the module docstring) into a
    per-frame stash, and :meth:`take_frame` turns a completed frame's
    stash back into the chunk-ordered ``runs_per_chunk`` layout the
    literal merge function consumes.  Frames never interleave: every
    record carries its frame seq, and a frame is only consumed once its
    completion watermark (``n_chunks × owned partitions`` records) is
    reached.
    """

    def __init__(
        self,
        worker_id: int,
        n_workers: int,
        edge_capacity: int,
        write_timeout: float,
        token: Optional[str] = None,
        watermark_timeout: Optional[float] = None,
    ):
        self.worker_id = int(worker_id)
        self.n_workers = int(n_workers)
        self.edge_capacity = int(edge_capacity)
        self.write_timeout = float(write_timeout)
        # The frame-completion wait has its own bound (the pool passes
        # WATERMARK_TIMEOUT); unset, it is the write timeout.
        self.watermark_timeout = (
            float(watermark_timeout)
            if watermark_timeout is not None
            else float(write_timeout)
        )
        # Inbound edge from every *other* worker; runs routed to self
        # short-circuit through the stash without touching a ring.
        # With a pool token the names are deterministic (see
        # :func:`mesh_edge_name`), so the parent can always unlink them.
        self.inbound: Dict[int, ShmRing] = {
            i: ShmRing.create(
                self.edge_capacity,
                record_size=1,
                name=(
                    mesh_edge_name(token, i, self.worker_id)
                    if token is not None
                    else None
                ),
            )
            for i in range(self.n_workers)
            if i != self.worker_id
        }
        self.outbound: Dict[int, ShmRing] = {}
        # seq -> {(chunk index, partition): raw bytes | ndarray}
        self._stash: Dict[int, dict] = {}

    @property
    def inbound_names(self) -> Dict[int, str]:
        """Writer id → segment name, reported to the parent once."""
        return {i: ring.name for i, ring in self.inbound.items()}

    def attach_row(self, names: Dict[int, str]) -> None:
        """Attach to the inbound edges of every peer (this row's writes)."""
        for j, name in names.items():
            if j not in self.outbound:
                self.outbound[j] = ShmRing.attach(name)

    # -- receiving ---------------------------------------------------------
    def _put(self, seq: int, ci: int, part: int, payload) -> None:
        self._stash.setdefault(seq, {})[(ci, part)] = payload

    def stash_relay(self, seq: int, ci: int, part: int, run) -> None:
        """Accept a parent-relayed oversized record (queue fallback)."""
        self._put(seq, ci, part, run)

    def poll(self) -> bool:
        """Drain every complete record currently visible on any inbound
        edge into the stash.  Never blocks; returns whether anything
        arrived.  Safe to call from inside a blocked outbound write
        (the ``on_wait`` hook) — that is what makes writer cycles
        deadlock-free."""
        got = False
        for ring in self.inbound.values():
            while ring.used >= MESH_HEADER_NBYTES:
                hdr = np.frombuffer(
                    ring.read_bytes(MESH_HEADER_NBYTES, timeout=self.write_timeout),
                    MESH_HEADER_DTYPE,
                )[0]
                payload = ring.read_bytes(
                    int(hdr["nbytes"]), timeout=self.write_timeout
                )
                self._put(
                    int(hdr["seq"]), int(hdr["chunk"]), int(hdr["part"]), payload
                )
                got = True
        return got

    # -- sending -----------------------------------------------------------
    def send(self, seq: int, ci: int, part: int, run: np.ndarray, owner: int) -> bool:
        """Ship one ``(chunk, partition)`` run to its owning worker.

        Returns False when the record cannot fit the edge at all — the
        caller must fall back to the parent-queue relay (the record
        still counts toward the owner's watermark, it just travels the
        control plane).  ``run`` must be C-contiguous.
        """
        if owner == self.worker_id:
            self._put(seq, ci, part, run)
            return True
        ring = self.outbound[owner]
        n = int(run.nbytes)
        if MESH_HEADER_NBYTES + n > ring.capacity:
            return False
        header = np.array(
            [(seq, ci, part, n)], dtype=MESH_HEADER_DTYPE
        ).view(np.uint8)
        # One atomic publish per record (header + payload, single write
        # cursor update): a visible header implies a visible payload, so
        # readers never block mid-record — and the run bytes are copied
        # exactly once, straight into the ring.
        ring.write_vec(
            (header, run.view(np.uint8).reshape(-1)),
            timeout=self.write_timeout,
            on_wait=self.poll,
        )
        return True

    # -- reducing ----------------------------------------------------------
    def take_frame(
        self,
        seq: int,
        owned: list,
        n_chunks: int,
        kv_dtype: np.dtype,
    ) -> list:
        """Wait for frame ``seq``'s completion watermark, then return its
        chunk-ordered runs for this worker's ``owned`` partitions —
        exactly the ``runs_per_chunk`` layout the in-process executor
        builds, so the downstream merge cannot tell them apart.

        By the control-plane contract this is called only after the
        parent observed every map completion for ``seq`` (sealing), so
        all records are already published (in edges, the stash, or
        relayed ahead of the reduce message on the task queue) and the
        wait below terminates immediately in practice; the timeout
        guards against protocol violations, not flow control.
        """
        kv_dtype = np.dtype(kv_dtype)
        expected = int(n_chunks) * len(owned)
        deadline = time.monotonic() + self.watermark_timeout
        frame = self._stash.setdefault(seq, {})
        with span("shuffle-in", cat="shuffle", frame=seq, records=expected):
            while len(frame) < expected:
                if not self.poll() and len(frame) < expected:
                    if time.monotonic() > deadline:
                        raise RingTimeout(
                            f"mesh watermark for frame {seq} not reached: "
                            f"{len(frame)}/{expected} records after "
                            f"{self.watermark_timeout}s"
                        )
                    time.sleep(_POLL_SECONDS)
        records = self._stash.pop(seq)
        runs_per_chunk = []
        for ci in range(int(n_chunks)):
            row = []
            for part in owned:
                raw = records[(ci, part)]
                if not isinstance(raw, np.ndarray):
                    raw = np.frombuffer(raw, dtype=kv_dtype)
                row.append(raw)
            runs_per_chunk.append(row)
        return runs_per_chunk

    def close(self) -> None:
        """Detach everything.  Inbound edges were created here, but the
        *parent* owns unlink (crash-safe teardown); a clean close still
        unlinks defensively — double unlink is guarded in the ring."""
        for ring in self.outbound.values():
            ring.close()
        self.outbound = {}
        for ring in self.inbound.values():
            ring.close()
        self.inbound = {}
        self._stash.clear()
