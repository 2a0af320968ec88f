"""Single-producer single-consumer shared-memory ring buffers.

Every edge of the pool's shuffle mesh is one ring: the mapping worker
(producer) appends tagged fragment-run records, the owning reducer
worker (consumer) drains them (see :mod:`repro.parallel.shuffle`).  The
ring models the paper's pinned buffers that the GPUs stream emitted
pairs into while the peer concurrently consumes them.

Layout of the shared segment::

    [ 64-byte header | capacity bytes of data ]

    header[0] = magic        (layout/version check on attach)
    header[1] = capacity     (data bytes)
    header[2] = write cursor (monotonic byte count ever written)
    header[3] = read cursor  (monotonic byte count ever consumed)
    header[4] = record size  (itemsize of the record dtype, advisory)
    header[5] = stall time   (ns the producer spent blocked on a full ring)
    header[6] = stall events (writes that found insufficient free space)
    header[7] = high water   (max occupied bytes ever observed at publish)

Words 5-7 are **backpressure counters**: the producer updates them (it
is the only writer of each), the consumer may read them at any time to
export per-worker stall/occupancy diagnostics.  They are advisory —
monotonic totals since creation, never reset by reads — so a consumer
wanting per-interval numbers snapshots and diffs them.

Cursors are *monotonic* uint64 byte counts; the physical offset is
``cursor % capacity`` and the occupied size is ``write − read``, which
makes full/empty unambiguous without wasting a slot.  The protocol is
strictly SPSC: only the producer advances ``write``, only the consumer
advances ``read``, and each side publishes its cursor only *after* the
corresponding memcpy — so a stale cursor read is always conservative
(the peer just waits a poll interval longer).  Waits are bounded
poll-sleeps; both sides raise :class:`TimeoutError` on expiry rather
than deadlocking silently.
"""

from __future__ import annotations

import time
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from ..observability.tracer import current_tracer

__all__ = ["ShmRing", "RingTimeout"]

_MAGIC = 0x52494E47_00000001  # "RING" + layout version
_HEADER_BYTES = 64
_HEADER_WORDS = _HEADER_BYTES // 8
(
    _IDX_MAGIC,
    _IDX_CAPACITY,
    _IDX_WRITE,
    _IDX_READ,
    _IDX_RECORD,
    _IDX_STALL_NS,
    _IDX_STALL_EVENTS,
    _IDX_HIGH_WATER,
) = range(8)
_POLL_SECONDS = 200e-6


class RingTimeout(TimeoutError):
    """A blocking ring operation expired before space/data appeared."""


class ShmRing:
    """SPSC byte ring over a :mod:`multiprocessing.shared_memory` segment."""

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self._shm = shm
        self._owner = owner
        self._closed = False
        self._open = True  # claimed (popped) by exactly one close()
        self._header = np.frombuffer(
            shm.buf, dtype=np.uint64, count=_HEADER_WORDS
        )
        if int(self._header[_IDX_MAGIC]) != _MAGIC:
            raise ValueError(f"segment {shm.name!r} is not a ring buffer")
        self.capacity = int(self._header[_IDX_CAPACITY])
        self._data = np.frombuffer(
            shm.buf, dtype=np.uint8, offset=_HEADER_BYTES, count=self.capacity
        )

    # -- construction ------------------------------------------------------
    @classmethod
    def create(
        cls, capacity: int, record_size: int = 1, name: Optional[str] = None
    ) -> "ShmRing":
        """Allocate a fresh ring (creator side; owns the segment name).

        ``name`` pins the segment name instead of letting the OS pick
        one — the mesh uses deterministic per-edge names so the parent
        can unlink every edge even when the creating worker died before
        reporting anything.
        """
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        if record_size < 1:
            raise ValueError("record size must be positive")
        shm = shared_memory.SharedMemory(
            create=True, size=_HEADER_BYTES + capacity, name=name
        )
        header = np.frombuffer(shm.buf, dtype=np.uint64, count=_HEADER_WORDS)
        header[:] = 0
        header[_IDX_CAPACITY] = capacity
        header[_IDX_RECORD] = record_size
        header[_IDX_MAGIC] = _MAGIC  # published last: attach sees a full header
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str, owner: bool = False) -> "ShmRing":
        """Attach to an existing ring.

        ``owner=False`` (the default, worker side) never unlinks.
        ``owner=True`` adopts unlink responsibility on :meth:`close` —
        the mesh uses this: each *worker* creates its inbound edge rings
        but the *parent* owns teardown, which keeps the
        no-leaked-segments guarantee even when a worker dies without
        cleaning up.  Double unlink is harmless (guarded in close).
        """
        return cls(shared_memory.SharedMemory(name=name), owner=owner)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def record_size(self) -> int:
        return int(self._header[_IDX_RECORD])

    # -- state -------------------------------------------------------------
    @property
    def used(self) -> int:
        return int(self._header[_IDX_WRITE]) - int(self._header[_IDX_READ])

    @property
    def written(self) -> int:
        """Total bytes ever published (the monotonic write cursor) —
        how much traffic this ring has carried since creation."""
        return int(self._header[_IDX_WRITE])

    @property
    def free(self) -> int:
        return self.capacity - self.used

    # -- backpressure counters ---------------------------------------------
    @property
    def stall_seconds(self) -> float:
        """Total time the producer has spent blocked on a full ring."""
        return int(self._header[_IDX_STALL_NS]) * 1e-9

    @property
    def stall_events(self) -> int:
        """Writes that found insufficient free space and had to wait."""
        return int(self._header[_IDX_STALL_EVENTS])

    @property
    def high_water(self) -> int:
        """Maximum occupied bytes ever observed when publishing a write."""
        return int(self._header[_IDX_HIGH_WATER])

    def counters(self) -> dict:
        """Snapshot of the producer's backpressure + traffic counters.

        All values are monotonic totals since creation; consumers
        wanting per-interval numbers snapshot and diff them (which is
        exactly what the pool's per-frame mesh stats do).
        """
        return {
            "stall_seconds": self.stall_seconds,
            "stall_events": self.stall_events,
            "high_water_bytes": self.high_water,
            "written_bytes": self.written,
        }

    # -- producer ----------------------------------------------------------
    def write_bytes(
        self, payload, timeout: Optional[float] = 30.0, on_wait=None
    ) -> None:
        """Append ``payload`` (bytes-like), blocking while the ring is full.

        ``payload`` must fit in the ring at all (``len <= capacity``);
        callers stream larger transfers in capacity-bounded pieces or
        fall back to another channel.  ``on_wait`` (optional callable)
        runs on every poll iteration while blocked — the mesh uses it to drain its *own* inbound edges while waiting
        for outbound space, which is what makes cycles of mutually
        backpressured workers deadlock-free.
        """
        self.write_vec((payload,), timeout=timeout, on_wait=on_wait)

    def write_vec(
        self, parts, timeout: Optional[float] = 30.0, on_wait=None
    ) -> None:
        """Append several bytes-like ``parts`` as ONE atomic publish.

        Each part is copied straight into the ring and the write cursor
        is published once, after the last copy — so a consumer either
        sees the whole concatenation or nothing, with no intermediate
        gather buffer.  The mesh writes each record as ``(header, run
        payload)`` through this, which keeps fragment bytes at a single
        memcpy.
        """
        bufs = [memoryview(p).cast("B") for p in parts]
        n = sum(len(b) for b in bufs)
        if n > self.capacity:
            raise ValueError(
                f"payload of {n} B exceeds ring capacity {self.capacity} B"
            )
        if n == 0:
            return
        if self.free < n:  # backpressure: the consumer is behind
            t0_ns = time.monotonic_ns()
            self._wait(lambda: self.free >= n, timeout, "space", on_wait)
            t1_ns = time.monotonic_ns()
            self._header[_IDX_STALL_NS] = np.uint64(
                int(self._header[_IDX_STALL_NS]) + (t1_ns - t0_ns)
            )
            self._header[_IDX_STALL_EVENTS] = np.uint64(
                int(self._header[_IDX_STALL_EVENTS]) + 1
            )
            # The header words aggregate stall time; the tracer (when
            # enabled) additionally records the *interval*, so a trace
            # shows when backpressure bit, not just that it did.
            tracer = current_tracer()
            if tracer is not None:
                tracer.add(
                    "ring-stall",
                    t0_ns,
                    t1_ns,
                    cat="stall",
                    args={"ring": self.name, "waited_for_bytes": n},
                )
        w = int(self._header[_IDX_WRITE])
        off = w
        for buf in bufs:
            m = len(buf)
            if m == 0:
                continue
            start = off % self.capacity
            first = min(m, self.capacity - start)
            self._data[start : start + first] = np.frombuffer(
                buf[:first], np.uint8
            )
            if first < m:  # wrap
                self._data[: m - first] = np.frombuffer(buf[first:], np.uint8)
            off += m
        # Publish after the copies: the consumer can never observe bytes
        # that are not fully written.
        self._header[_IDX_WRITE] = np.uint64(w + n)
        occupied = w + n - int(self._header[_IDX_READ])
        if occupied > int(self._header[_IDX_HIGH_WATER]):
            self._header[_IDX_HIGH_WATER] = np.uint64(occupied)

    # -- consumer ----------------------------------------------------------
    def read_bytes(self, n: int, timeout: Optional[float] = 30.0) -> bytearray:
        """Consume exactly ``n`` bytes, blocking until they are available."""
        if n < 0:
            raise ValueError("cannot read a negative byte count")
        out = bytearray(n)
        if n == 0:
            return out
        if n > self.capacity:
            raise ValueError(
                f"read of {n} B exceeds ring capacity {self.capacity} B"
            )
        self._wait(lambda: self.used >= n, timeout, "data")
        r = int(self._header[_IDX_READ])
        start = r % self.capacity
        first = min(n, self.capacity - start)
        out[:first] = self._data[start : start + first].tobytes()
        if first < n:  # wrap
            out[first:] = self._data[: n - first].tobytes()
        self._header[_IDX_READ] = np.uint64(r + n)
        return out

    # -- plumbing ----------------------------------------------------------
    def _wait(
        self, ready, timeout: Optional[float], what: str, on_wait=None
    ) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not ready():
            if deadline is not None and time.monotonic() > deadline:
                raise RingTimeout(
                    f"ring {self.name}: no {what} after {timeout}s "
                    f"(used {self.used}/{self.capacity} B)"
                )
            if on_wait is not None:
                on_wait()
            time.sleep(_POLL_SECONDS)

    def close(self) -> None:
        """Detach (and unlink, if this side created the segment).

        Safe against concurrent double-close: an explicit executor
        ``close()`` can race the GC finalizer's teardown sweep, so the
        closed flag is claimed atomically (under the GIL) before any
        state is torn down — the loser of the race returns immediately
        instead of unmapping a half-dismantled ring.
        """
        try:
            # dict.pop is atomic under the GIL: exactly one caller wins
            # the claim, everyone else sees KeyError and returns.
            self.__dict__.pop("_open")
        except KeyError:
            return
        self._closed = True
        # Views pin shm.buf; drop them before closing the mapping.
        self._header = None
        self._data = None
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already gone (double close is fine)
                pass

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
