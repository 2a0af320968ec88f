"""Event tracing and stage-time aggregation.

Every timed activity in the simulated cluster records a :class:`Span`
(category, resource, start, end).  The paper reports stacked per-stage
wall-clock bars (Fig. 3: Map, Partition + I/O, Sort, Reduce); the
:class:`StageBreakdown` here reproduces that accounting:

* the *Sort* and *Reduce* phases are separated from the map phase by a
  barrier (the paper sorts only "once all Mappers have finished and all
  data has been routed"), so their stage times are plain phase walls;
* within the map phase, compute and communication overlap, so the *Map*
  bar is the critical-path compute time ``max_gpu(Σ kernel+upload)`` and
  the *Partition + I/O* bar is whatever wall-clock the communication
  failed to hide: ``wall(map phase) − Map``.

That is exactly the decomposition that makes the paper's bars sum to the
total runtime.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = ["Span", "Trace", "StageBreakdown"]

# Canonical span categories used across the pipeline.
CAT_DISK = "disk"
CAT_H2D = "h2d"
CAT_H2D_ASYNC = "h2d_async"  # overlapped buffer uploads (§7 async mode)
CAT_KERNEL = "kernel"
CAT_D2H = "d2h"
CAT_PARTITION = "partition"
CAT_NET = "net"
CAT_SORT = "sort"
CAT_REDUCE = "reduce"
CAT_HOST = "host"


@dataclass(frozen=True)
class Span:
    """One timed activity on one resource."""

    category: str
    resource: str
    start: float
    end: float
    nbytes: int = 0
    meta: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """Append-only span log with aggregation helpers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.marks: dict[str, float] = {}

    def record(
        self,
        category: str,
        resource: str,
        start: float,
        end: float,
        nbytes: int = 0,
        **meta: Any,
    ) -> None:
        if end < start:
            raise ValueError(f"span ends before it starts: {start}..{end}")
        self.spans.append(
            Span(category, resource, start, end, nbytes, tuple(sorted(meta.items())))
        )

    def mark(self, name: str, time: float) -> None:
        """Record a named phase boundary."""
        self.marks[name] = time

    # -- aggregation -----------------------------------------------------
    def busy_by_resource(self, categories: Iterable[str]) -> dict[str, float]:
        """Σ duration per resource over the given categories."""
        cats = set(categories)
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.category in cats:
                out[s.resource] += s.duration
        return dict(out)

    def bytes_moved(self, category: str) -> int:
        return sum(s.nbytes for s in self.spans if s.category == category)


@dataclass
class StageBreakdown:
    """Wall-clock decomposition matching the paper's Fig. 3 stacked bars."""

    map: float = 0.0
    partition_io: float = 0.0
    sort: float = 0.0
    reduce: float = 0.0

    @property
    def total(self) -> float:
        return self.map + self.partition_io + self.sort + self.reduce

    @classmethod
    def from_trace(cls, trace: Trace) -> "StageBreakdown":
        """Build the Fig. 3 accounting from a pipeline trace.

        Requires the phase marks ``map_phase_end``, ``sort_phase_end`` and
        ``reduce_phase_end`` plus the standard categories.
        """
        try:
            t_map_end = trace.marks["map_phase_end"]
            t_sort_end = trace.marks["sort_phase_end"]
            t_reduce_end = trace.marks["reduce_phase_end"]
        except KeyError as missing:
            raise ValueError(f"trace lacks phase mark {missing}") from None
        t0 = trace.marks.get("start", 0.0)
        wall_map_phase = t_map_end - t0
        # Critical-path compute inside the map phase: per-GPU serial time
        # of texture uploads + kernels (sync copies cannot overlap the
        # kernel on the same GPU, so they add).
        per_gpu = trace.busy_by_resource([CAT_KERNEL, CAT_H2D])
        map_compute = max(per_gpu.values(), default=0.0)
        map_stage = min(wall_map_phase, map_compute)
        return cls(
            map=map_stage,
            partition_io=wall_map_phase - map_stage,
            sort=t_sort_end - t_map_end,
            reduce=t_reduce_end - t_sort_end,
        )
