"""Aggregate job statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["JobStats"]


@dataclass
class JobStats:
    """Work counters for one functional MapReduce job.  Simulated
    timings and traffic live in :class:`~repro.sim.scheduler.SimOutcome`."""

    n_chunks: int = 0
    n_rays: int = 0
    n_samples: int = 0
    n_pairs_emitted: int = 0  # including placeholders
    n_pairs_kept: int = 0  # after placeholder discard
    # Ring-buffer backpressure diagnostics, filled only by the pool
    # executor: aggregate + per-worker producer stall time/events, ring
    # high-water marks, and queue fallbacks for oversized chunks.  These
    # are *timing-dependent* (they vary run to run with scheduling), so
    # they are deliberately excluded from as_dict(), which reports only
    # the deterministic counters the executor-parity contract covers.
    ring: Optional[dict] = field(default=None, repr=False, compare=False)
    # Supervision/recovery ledger, filled by the pool executor only when
    # a failure was actually recovered (failure-free runs leave it None):
    # respawn waves and their latency, re-executed frames, per-stage
    # retry counts, degradation steps.  Timing-dependent like `ring`, so
    # excluded from as_dict() — recovered frames are bitwise-identical,
    # and the parity contract must not see how bumpy the road was.
    recovery: Optional[dict] = field(default=None, repr=False, compare=False)
    # Unified metrics export (repro.observability.metrics): the ring /
    # recovery / arena / accel-cache counters rolled into one schema.
    # Timing-dependent like the dicts it absorbs, so compare=False and
    # dumped only via as_dict(include_telemetry=True).
    telemetry: Optional[dict] = field(default=None, repr=False, compare=False)

    def add_map(self, work: dict[str, int], emitted: int, kept: int) -> None:
        self.n_chunks += 1
        self.n_rays += int(work.get("n_rays", 0))
        self.n_samples += int(work.get("n_samples", 0))
        self.n_pairs_emitted += emitted
        self.n_pairs_kept += kept

    def as_dict(self, include_telemetry: bool = False) -> dict:
        """Counter dump.

        By default only the deterministic counters covered by the
        executor-parity contract are included, so dicts are comparable
        across executors/planes/runs.  ``include_telemetry=True`` opts
        in to the timing-dependent ``ring`` / ``recovery`` / ``telemetry``
        blocks (the ``--stats-json`` dump) without weakening that
        default.
        """
        out = {
            "n_chunks": self.n_chunks,
            "n_rays": self.n_rays,
            "n_samples": self.n_samples,
            "n_pairs_emitted": self.n_pairs_emitted,
            "n_pairs_kept": self.n_pairs_kept,
        }
        if include_telemetry:
            if self.ring is not None:
                out["ring"] = self.ring
            if self.recovery is not None:
                out["recovery"] = self.recovery
            if self.telemetry is not None:
                out["telemetry"] = self.telemetry
        return out
