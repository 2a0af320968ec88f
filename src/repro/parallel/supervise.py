"""Worker supervision and recovery policy for the pool executor.

MapReduce's signature robustness property is that failed map/reduce
tasks are simply re-executed on healthy workers; the paper inherits it
wholesale (a dead GPU's bricks are re-assigned and re-rendered).  This
module gives :class:`~repro.parallel.pool.SharedMemoryPoolExecutor`
the same property on the shared-memory planes:

* **Detection** — :func:`dead_workers` is the watchdog primitive the
  executor polls whenever its result queue goes quiet
  (``Process.is_alive`` + exitcode); wedged edges and watermark expiry
  surface as :class:`~repro.parallel.ring.RingTimeout`, either raised
  parent-side (uplink-ring reads) or reported by a worker in an error
  message whose exception-type tag :func:`worker_error_to_exception`
  classifies.
* **Classification** — :class:`PoolFailure` marks an *infrastructure*
  failure (a dead process, a wedged transport): these are recoverable
  by re-execution, because the inputs are intact and the kernels are
  deterministic.  An exception raised by *user code* (a mapper or
  reducer bug) is deliberately **not** a ``PoolFailure``: it would fail
  identically on every retry, so it propagates to the caller exactly as
  before supervision existed.
* **Policy & accounting** — :class:`PoolSupervisor` records every
  failure, respawn wave, re-executed frame, and degradation step.  The
  executor consults ``PoolConfig.max_frame_retries`` /
  ``retry_backoff`` for the bounded-retry ladder and exports the
  supervisor's snapshot through ``JobStats.recovery`` (excluded from
  ``as_dict()`` like the ring counters: recovery is timing-dependent,
  results are not).

The *fault domain* of this executor is the pool's transport epoch: the
SPSC rings, mesh edges, and control queues carry mid-frame state that
cannot be rewound for a single process, so recovery quarantines the
whole epoch — every transport object and worker process is recycled —
while the expensive state survives: the shared-memory **arena** (the
published volume bricks and transfer function)
stays mapped, and replacement workers re-attach it by name in
microseconds.  In-flight frames are then re-executed (re-publish →
re-map → re-reduce); the chunk-order merge invariant makes the
recovered output bitwise-identical to a failure-free run.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import List, Optional, Sequence, Tuple

from ..observability.tracer import instant
from .ring import RingTimeout

__all__ = [
    "PoolFailure",
    "PoolSupervisor",
    "classify_failure",
    "dead_workers",
    "worker_error_to_exception",
]

#: Stage label used when a failure cannot be attributed to a specific
#: point of the worker state machine (a process found dead between
#: messages tells us nothing about where it was).
STAGE_UNKNOWN = "death"


class PoolFailure(RuntimeError):
    """An *infrastructure* failure of the pool — recoverable by retry.

    kind:
        ``"worker-death"`` (a process exited or was killed),
        ``"wedged"`` (a ring/edge write or a frame watermark timed
        out), or ``"conn-drop"`` (a socket-plane peer connection
        reset/EOFed mid-frame — the stream analogue of finding the
        peer process dead).
    workers:
        The worker ids/names implicated, when known.
    stage:
        Where in the Map → shuffle-out → shuffle-in → Reduce machine the
        failure surfaced (best effort; :data:`STAGE_UNKNOWN` for deaths
        detected between messages).
    """

    def __init__(
        self,
        message: str,
        kind: str,
        workers: Sequence = (),
        stage: Optional[str] = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.workers = list(workers)
        self.stage = stage if stage is not None else STAGE_UNKNOWN


def dead_workers(procs: Sequence) -> List[Tuple[str, Optional[int]]]:
    """The watchdog primitive: ``(name, exitcode)`` of every dead process."""
    return [(p.name, p.exitcode) for p in procs if not p.is_alive()]


def classify_failure(exc: BaseException) -> Optional[PoolFailure]:
    """The recoverability decision for one raised exception.

    Returns the failure to recover from, or None when the exception is
    *not* an infrastructure failure — user-code errors, protocol
    violations, and interrupts keep their historical fail-fast,
    tear-down semantics (a deterministic bug re-executes into the same
    bug; retrying it would only launder the traceback through the
    degradation ladder).
    """
    if isinstance(exc, PoolFailure):
        return exc
    if isinstance(exc, RingTimeout):
        # Parent-side timeout draining an uplink ring: the producing
        # worker stopped publishing mid-stream.
        return PoolFailure(str(exc), kind="wedged", stage="shuffle-out")
    # Deferred import: socketplane sits above shuffle, which imports
    # this module at load time.
    from .socketplane import SocketClosed

    if isinstance(exc, SocketClosed):
        # A socket-plane peer dropped its connection mid-frame: the
        # inputs are intact, so recycle the transport epoch and replay.
        return PoolFailure(str(exc), kind="conn-drop", stage="shuffle-out")
    return None


def worker_error_to_exception(
    wi: int, what: str, tb: str, etype: str
) -> Exception:
    """Turn one worker-reported ``("error", ...)`` message into the
    exception the parent should raise.

    Workers tag each report with the exception class name; a
    ``RingTimeout`` is transport wedging (a blocked edge/stream write
    inside a map task, or an expired frame watermark inside a reduce)
    and a ``SocketClosed`` is a dropped socket-plane peer connection —
    both map to a recoverable :class:`PoolFailure`, while anything else
    is a task failure in user code and keeps the historical fatal
    ``RuntimeError``.
    """
    if etype in ("RingTimeout", "SocketClosed"):
        stage = "shuffle-in" if what.startswith("reduce") else "shuffle-out"
        return PoolFailure(
            ("dropped connection" if etype == "SocketClosed"
             else "wedged transport")
            + f" in the worker pool [{what} on worker {wi}]:\n{tb}",
            kind="conn-drop" if etype == "SocketClosed" else "wedged",
            workers=[wi],
            stage=stage,
        )
    return RuntimeError(
        f"task failure in the worker pool [{what} on worker {wi}]:\n{tb}"
    )


class PoolSupervisor:
    """Recovery ledger of one executor: every failure, respawn wave,
    re-executed frame, and degradation step, cheap enough to keep
    always-on.  The executor owns the *policy loop* (it must interleave
    teardown/respawn/replay with its own state); this object owns the
    *accounting* that policy and reporting share."""

    #: Cap on the retained per-event history (counters are unbounded).
    MAX_EVENTS = 64

    def __init__(self):
        self.respawns = 0
        self.respawn_seconds = 0.0
        self.frames_reexecuted = 0
        self.failures = 0
        self.retries_by_stage: Counter = Counter()
        self.degraded_events: List[Tuple[int, int]] = []  # (from, to) widths
        self.serial_fallback = False
        self.events: List[dict] = []

    # -- recording ---------------------------------------------------------
    def _event(self, event: str, **detail) -> None:
        if len(self.events) < self.MAX_EVENTS:
            self.events.append({"event": event, "t": time.time(), **detail})
        # When tracing is on, ledger events double as timeline markers:
        # failure/degrade/fallback instants sit on the parent track next
        # to the respawn spans they explain.
        instant(f"supervisor:{event}", cat="supervisor", **detail)

    def record_failure(self, failure: PoolFailure) -> None:
        self.failures += 1
        self.retries_by_stage[failure.stage] += 1
        self._event(
            "failure",
            kind=failure.kind,
            stage=failure.stage,
            workers=list(failure.workers),
        )

    def record_respawn(self, workers: int, seconds: float, gen: int) -> None:
        self.respawns += 1
        self.respawn_seconds += float(seconds)
        self._event("respawn", workers=workers, seconds=seconds, gen=gen)

    def record_reexecuted(self, frames: int) -> None:
        self.frames_reexecuted += int(frames)

    def record_degraded(self, old_width: int, new_width: int) -> None:
        self.degraded_events.append((int(old_width), int(new_width)))
        self._event("degraded", workers_from=old_width, workers_to=new_width)

    def record_serial_fallback(self) -> None:
        self.serial_fallback = True
        self._event("serial-fallback")

    # -- reporting ---------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any recovery activity happened at all (when False the
        executor leaves ``JobStats.recovery`` as None, so failure-free
        runs are indistinguishable from pre-supervision ones)."""
        return self.failures > 0 or self.respawns > 0

    def snapshot(self, frame_retries: int = 0, workers: int = 0) -> dict:
        """The ``JobStats.recovery`` payload: cumulative for the pool,
        plus the collecting frame's own retry count."""
        return {
            "failures": self.failures,
            "respawns": self.respawns,
            "respawn_seconds": self.respawn_seconds,
            "frames_reexecuted": self.frames_reexecuted,
            "retries_by_stage": dict(self.retries_by_stage),
            "degraded_events": list(self.degraded_events),
            "serial_fallback": self.serial_fallback,
            "frame_retries": int(frame_retries),
            "workers": int(workers),
        }

    def summary_lines(self) -> List[str]:
        """Human-readable recovery summary for the CLI backend report."""
        if not self.active:
            return []
        stages = ", ".join(
            f"{stage}={count}"
            for stage, count in sorted(self.retries_by_stage.items())
        )
        lines = [
            f"recovered from {self.failures} worker failure(s): "
            f"{self.respawns} respawn(s) "
            f"({self.respawn_seconds * 1e3:.1f} ms), "
            f"{self.frames_reexecuted} frame(s) re-executed"
            + (f" [{stages}]" if stages else "")
        ]
        for old, new in self.degraded_events:
            lines.append(f"degraded pool: {old} -> {new} worker(s)")
        if self.serial_fallback:
            lines.append("degraded to the serial in-process executor")
        return lines
