"""One telemetry schema over the stack's ad-hoc counters.

Each subsystem keeps its own dict shape — ``JobStats.ring`` (shuffle-
plane backpressure), ``JobStats.recovery`` (the supervision ledger),
arena publish bytes, :class:`~repro.render.accel.AccelCache` hit
counters, the map stage's gauges.  :func:`build_job_telemetry` flattens
them all into one ``{name: {kind, value[, unit]}}`` document under
``JobStats.telemetry`` (dumped by ``repro render --stats-json``), so
downstream tooling reads a single schema instead of five.

Two metric kinds: ``counter`` (a monotonic total: the arena's) and
``gauge`` (a last-observed value, numeric or descriptive, e.g.
``shuffle_mode="mesh"``).

Everything here is parent-side, per-frame bookkeeping — a few dozen
dict operations per frame against multi-millisecond frames — so it
stays always-on (unlike the tracer, which is default-off because it
records per-chunk intervals in every process).
"""

from __future__ import annotations

from numbers import Number
from typing import Optional

__all__ = ["SCHEMA", "build_job_telemetry"]

#: Schema tag stamped into every export, so readers can dispatch.
SCHEMA = "repro.telemetry/v1"

#: The arena's publish counters and their units.
_ARENA_COUNTERS = {"publishes": None, "published_bytes": "bytes", "rebroadcasts": None}


def _flatten(metrics: dict, prefix: str, mapping: Optional[dict]) -> None:
    """Flatten an ad-hoc nested dict into gauges under ``prefix``.

    Numeric leaves become numeric gauges, strings/bools/None descriptive
    ones, and lists of scalars list-valued ones; nested dicts recurse
    with dotted names and lists of dicts are indexed
    (``ring.per_edge.0.stall_seconds``).  Other leaves are dropped.
    """
    for key, value in (mapping or {}).items():
        name = f"{prefix}.{key}"
        if isinstance(value, dict):
            _flatten(metrics, name, value)
        elif isinstance(value, (list, tuple)) and value and all(
            isinstance(v, dict) for v in value
        ):
            for i, sub in enumerate(value):
                _flatten(metrics, f"{name}.{i}", sub)
        elif isinstance(value, (list, tuple)):
            metrics[name] = {"kind": "gauge", "value": list(value)}
        elif isinstance(value, (Number, str, bool)) or value is None:
            metrics[name] = {"kind": "gauge", "value": value}


def build_job_telemetry(
    ring: Optional[dict] = None,
    recovery: Optional[dict] = None,
    arena: Optional[dict] = None,
    cache: Optional[dict] = None,
    **gauges,
) -> dict:
    """Assemble one frame's ``JobStats.telemetry`` document.

    ``ring``/``recovery`` are the executor's existing per-frame dicts
    (flattened verbatim under their old names so nothing is lost in the
    translation); ``arena`` carries the parent's publish counters,
    ``cache`` the parent-side :class:`AccelCache` hit statistics, and
    any extra keyword becomes a top-level gauge (pool shape knobs).
    Metrics are sorted by name.
    """
    metrics: dict = {}
    _flatten(metrics, "ring", ring)
    _flatten(metrics, "recovery", recovery)
    if arena:
        for key, unit in _ARENA_COUNTERS.items():
            entry = {"kind": "counter", "value": int(arena.get(key, 0))}
            if unit is not None:
                entry["unit"] = unit
            metrics[f"arena.{key}"] = entry
    _flatten(metrics, "accel_cache", cache)
    for name, value in gauges.items():
        metrics[name] = {"kind": "gauge", "value": value}
    return {"schema": SCHEMA, "metrics": dict(sorted(metrics.items()))}
