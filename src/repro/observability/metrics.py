"""Unified metrics registry: one schema over the stack's ad-hoc counters.

Before this module each subsystem exported its own dict shape —
``JobStats.ring`` (shuffle-plane backpressure), ``JobStats.recovery``
(the supervision ledger), queue-fallback counts, arena publish bytes,
:class:`~repro.render.accel.AccelCache` hit counters.  The registry
absorbs them all into one ``{name: {kind, value, unit}}`` document
under ``JobStats.telemetry`` (dumped by ``repro render --stats-json``),
so downstream tooling reads a single schema instead of five.

Two metric kinds, deliberately minimal:

* :class:`Counter` — monotonic total (``inc``),
* :class:`Gauge` — last-observed value (``set``); non-numeric values
  are allowed and exported as-is (e.g. ``shuffle_mode="mesh"``).

Everything here is parent-side, per-frame bookkeeping — a few dozen
dict operations per frame against multi-millisecond frames — so the
registry stays always-on (unlike the tracer, which is default-off
because it records per-chunk intervals in every process).
"""

from __future__ import annotations

from numbers import Number
from typing import Optional

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "SCHEMA",
    "build_job_telemetry",
]

#: Schema tag stamped into every export, so readers can dispatch.
SCHEMA = "repro.telemetry/v1"


class Counter:
    """Monotonic total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, n=1) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        self.value += n

    def export(self):
        return self.value


class Gauge:
    """Last-observed value (numeric or descriptive)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = None

    def set(self, value) -> None:
        self.value = value

    def export(self):
        return self.value


class MetricsRegistry:
    """Name → metric map with one export shape for all kinds."""

    def __init__(self):
        self._metrics: dict = {}

    def _get(self, name: str, cls, unit: Optional[str]):
        entry = self._metrics.get(name)
        if entry is None:
            entry = (cls(), unit)
            self._metrics[name] = entry
        elif not isinstance(entry[0], cls):
            raise TypeError(
                f"metric {name!r} already registered as {entry[0].kind}"
            )
        return entry[0]

    def counter(self, name: str, unit: Optional[str] = None) -> Counter:
        return self._get(name, Counter, unit)

    def gauge(self, name: str, unit: Optional[str] = None) -> Gauge:
        return self._get(name, Gauge, unit)

    def absorb(self, prefix: str, mapping: Optional[dict]) -> None:
        """Flatten an ad-hoc nested dict into gauges under ``prefix``.

        Numeric leaves become numeric gauges, strings/bools descriptive
        ones; nested dicts recurse with dotted names and lists of dicts
        are indexed (``ring.per_worker.0.stall_seconds``).  This is the
        adapter that lets today's ``JobStats.ring`` / ``recovery``
        payloads join the unified schema without rewriting their
        producers.
        """
        if mapping is None:
            return
        for key, value in mapping.items():
            name = f"{prefix}.{key}"
            if isinstance(value, dict):
                self.absorb(name, value)
            elif isinstance(value, (list, tuple)) and value and all(
                isinstance(v, dict) for v in value
            ):
                for i, sub in enumerate(value):
                    self.absorb(f"{name}.{i}", sub)
            elif isinstance(value, (list, tuple)):
                self.gauge(name).set(list(value))
            elif isinstance(value, (Number, str, bool)) or value is None:
                self.gauge(name).set(value)

    def as_dict(self) -> dict:
        metrics = {}
        for name in sorted(self._metrics):
            metric, unit = self._metrics[name]
            entry = {"kind": metric.kind, "value": metric.export()}
            if unit is not None:
                entry["unit"] = unit
            metrics[name] = entry
        return {"schema": SCHEMA, "metrics": metrics}


def build_job_telemetry(
    ring: Optional[dict] = None,
    recovery: Optional[dict] = None,
    arena: Optional[dict] = None,
    cache: Optional[dict] = None,
    **gauges,
) -> dict:
    """Assemble one frame's ``JobStats.telemetry`` document.

    ``ring``/``recovery`` are the executor's existing per-frame dicts
    (absorbed verbatim under their old names so nothing is lost in the
    translation); ``arena`` carries the parent's publish counters,
    ``cache`` the parent-side :class:`AccelCache` hit statistics, and
    any extra keyword becomes a top-level gauge (pool shape knobs).
    """
    reg = MetricsRegistry()
    reg.absorb("ring", ring)
    reg.absorb("recovery", recovery)
    if arena:
        reg.counter("arena.publishes").inc(int(arena.get("publishes", 0)))
        reg.counter("arena.published_bytes", unit="bytes").inc(
            int(arena.get("published_bytes", 0))
        )
        reg.counter("arena.rebroadcasts").inc(int(arena.get("rebroadcasts", 0)))
    if cache:
        reg.absorb("accel_cache", cache)
    for name, value in gauges.items():
        reg.gauge(name).set(value)
    return reg.as_dict()
