"""Telemetry plane: span tracing, timeline export, unified metrics.

Three pieces, one contract (see ARCHITECTURE.md "Observability"):

* :mod:`repro.observability.tracer` — the default-off, process-global
  span recorder every stage boundary reports through; provably inert
  when disabled.
* :mod:`repro.observability.timeline` — merges parent + worker span
  buffers into Chrome/Perfetto ``trace_event`` JSON (``repro render
  --trace-out``) and computes the CLI's per-stage breakdown line.
* :mod:`repro.observability.metrics` — :func:`build_job_telemetry`
  flattens the stack's ad-hoc stat dicts into the single
  ``JobStats.telemetry`` schema (``repro render --stats-json``).
"""

from .metrics import SCHEMA, build_job_telemetry
from .timeline import (
    chrome_trace,
    stage_breakdown,
    stage_summary_line,
    write_chrome_trace,
)
from .tracer import (
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    instant,
    span,
)

__all__ = [
    "SCHEMA",
    "Tracer",
    "build_job_telemetry",
    "chrome_trace",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "instant",
    "span",
    "stage_breakdown",
    "stage_summary_line",
    "write_chrome_trace",
]
