"""Per-stage span tracing for the parallel render stack.

The tracer is a process-global, **default-off** recorder of monotonic
-clock span intervals.  Every instrumentation point in the library goes
through module-level :func:`span` / :func:`instant`, which read one
module global and return a shared no-op when tracing is disabled — the
"off" cost is a dict lookup plus an ``is None`` test per *stage* (per
chunk or per frame, never per sample), which is what makes the golden
-image and overhead contracts trivial to keep: the tracer never touches
job data, and its disabled cost is orders of magnitude below one chunk's
kernel work.

Span taxonomy (see ARCHITECTURE.md "Observability"):

``publish``
    Parent: (re)publishing the chunk/TF/grid shared-memory arena.
``map:chunks=a-b``
    Worker (or serial executor): Map + Partition of one *launch* — the
    chunks ``a``…``b`` (first and last; ``args["chunks"]`` lists them
    all, ``args["frame"]`` the frame in the pool) marched in one fused
    kernel invocation.  Exactly one, never nested, per launch, so the
    ``map`` spans of a track sum to its map time.
``shuffle-out``
    Worker: streaming one chunk's runs into the uplink ring or the
    mesh edges (includes queue fallbacks).
``shuffle-in``
    Mesh reducer: draining inbound edges to a frame's watermark.
``reduce:partition=p``
    Sort + Reduce of one partition, wherever it runs (worker, parent,
    serial) — ``p`` is the job-level partition id even when a worker
    renumbers its owned subset.
``stitch``
    Parent: assembling the final image from reduced pixel spans.
``respawn``
    Parent: supervised recovery respawning a worker wave (args carry
    the new spawn generation).
``ring-stall``
    Any producer blocked on a full SPSC ring (backpressure intervals —
    the ring counters aggregate them, the spans show *when*).

Clock: :func:`time.monotonic_ns` — on Linux ``CLOCK_MONOTONIC`` is
system-wide, so parent and worker timestamps land on one comparable
timeline without cross-process clock handshakes.

Worker transport: each worker process records spans into its own
in-process buffer (plain list appends — atomic under the GIL, no locks)
and flushes the buffer onto the existing result queue *immediately
before* each task-completion message (``("spans", worker, spawn_gen,
events)`` precedes the ``done``/``reduced`` it belongs to).  FIFO queue
order therefore guarantees the parent has absorbed a task's spans by
the time the task counts toward a frame seal, no matter how pipelined
frames or respawned generations interleave.
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = [
    "Tracer",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "instant",
    "span",
]


class _NoopSpan:
    """Shared, stateless stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        pass


_NOOP = _NoopSpan()


class _LiveSpan:
    """Context manager recording one ``(name, cat, t0, dur, args)`` event."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: Optional[str], args):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args
        self._t0 = 0

    def set(self, **args) -> None:
        """Attach (or update) args discovered while the span is open."""
        if self._args is None:
            self._args = {}
        self._args.update(args)

    def __enter__(self) -> "_LiveSpan":
        self._t0 = time.monotonic_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer.add(
            self._name,
            self._t0,
            time.monotonic_ns(),
            cat=self._cat,
            args=self._args,
        )
        return False


class Tracer:
    """Span recorder for one process (plus, in the parent, the merged
    buffers shipped back by workers).

    Events are 5-tuples ``(name, cat, ts_ns, dur_ns, args)`` with
    ``dur_ns is None`` marking an instant (zero-duration marker) event.
    Buffers are plain lists: appends are atomic under the GIL, so
    producers never take a lock.
    """

    def __init__(self):
        self._events: list = []
        self._remote: list = []  # (worker, spawn_gen, events) triples

    # -- recording ---------------------------------------------------------
    def span(self, name: str, cat: Optional[str] = None, **args) -> _LiveSpan:
        return _LiveSpan(self, name, cat, args or None)

    def add(
        self,
        name: str,
        t0_ns: int,
        t1_ns: int,
        cat: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a completed span from explicit timestamps."""
        self._events.append((name, cat, int(t0_ns), int(t1_ns - t0_ns), args))

    def instant(self, name: str, cat: Optional[str] = None, **args) -> None:
        """Record a zero-duration marker (exported as a Chrome instant)."""
        self._events.append(
            (name, cat, time.monotonic_ns(), None, args or None)
        )

    # -- transport ---------------------------------------------------------
    def drain(self) -> list:
        """Pop and return this process's buffered events (worker flush)."""
        events, self._events = self._events, []
        return events

    def add_remote(self, worker: int, spawn_gen: int, events: list) -> None:
        """Absorb a worker's flushed span buffer (parent side)."""
        if events:
            self._remote.append((int(worker), int(spawn_gen), events))

    # -- inspection --------------------------------------------------------
    @property
    def events(self) -> list:
        """This process's own events (the parent track)."""
        return self._events

    def remote(self) -> list:
        """``(worker, spawn_gen, events)`` triples shipped by workers."""
        return self._remote

    def all_events(self):
        """Iterate ``(track, gen, event)`` over parent (track None) and
        worker events alike — the flattened per-job timeline."""
        for ev in self._events:
            yield None, 0, ev
        for worker, gen, events in self._remote:
            for ev in events:
                yield worker, gen, ev

    def clear(self) -> None:
        self._events = []
        self._remote = []


_active: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or None while tracing is disabled."""
    return _active


def enable_tracing() -> Tracer:
    """Install (and return) a fresh process-global tracer.

    Enable *before* the first frame: pool workers decide whether to
    trace when they are spawned.  Re-enabling replaces the previous
    tracer, so each job can start from an empty timeline.
    """
    global _active
    _active = Tracer()
    return _active


def disable_tracing() -> Optional[Tracer]:
    """Uninstall the tracer (returning it, so callers may still export).

    Also used by freshly forked workers to drop a tracer inherited from
    a tracing parent when their own ``cfg["trace"]`` is off.
    """
    global _active
    tracer, _active = _active, None
    return tracer


def span(name: str, cat: Optional[str] = None, **args):
    """A span context manager on the active tracer (no-op when disabled)."""
    tracer = _active
    if tracer is None:
        return _NOOP
    return tracer.span(name, cat, **args)


def instant(name: str, cat: Optional[str] = None, **args) -> None:
    """Record an instant marker on the active tracer (no-op when disabled)."""
    tracer = _active
    if tracer is not None:
        tracer.instant(name, cat, **args)
