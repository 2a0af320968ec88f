"""Executors: where a job runs.

* :class:`InProcessExecutor` — pure functional execution (no clock).  The
  algorithmic content of the library: map (launch by launch, as the
  mapper's ``launch_sizes`` cuts the chunk list) → partition
  (placeholder discard + routing) → sort (θ(n) counting sort) → reduce.
  Used by tests, examples, and the correctness half of every benchmark.

Each functional result also carries one :class:`MapWork` per chunk, the
work counters the cluster simulator (:mod:`repro.sim.scheduler`) prices;
nothing here imports the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..observability.metrics import build_job_telemetry
from ..observability.tracer import span
from .chunk import Chunk
from .job import MapReduceSpec
from .keyvalue import PLACEHOLDER, concat_pairs, validate_pairs
from .sort import _permute_records, stable_counting_order
from .stats import JobStats

__all__ = [
    "InProcessResult",
    "InProcessExecutor",
    "MapWork",
    "PartitionReduceSpec",
    "ShuffleSpec",
    "make_map_work",
    "map_chunk_to_runs",
    "map_chunks_to_runs",
    "map_span_name",
    "map_telemetry",
    "merge_partition_runs",
]


@dataclass(frozen=True)
class ShuffleSpec:
    """The shuffle plane's partition-ownership contract.

    Every execution path — the serial :class:`InProcessExecutor`, the
    pool parent, and the pool workers — shares this one object, so the
    question of where a partition's fragment bytes go always has the
    same answer everywhere (how a launch's pairs become runs in the
    first place is :func:`map_chunks_to_runs`, which every path runs):

    * **ownership** (:meth:`owner_of` / :meth:`owned_partitions`):
      which worker reduces which partition (``partition % n_workers``
      — static, so results can never depend on scheduling);
    * the degenerate serial case: ``n_workers=1`` makes worker 0 own
      everything, which is exactly what :class:`InProcessExecutor`
      executes.

    Keys are disjoint per partition, so ownership placement cannot
    change reduced outputs — only who computes them.
    """

    n_reducers: int
    n_workers: int = 1

    def __post_init__(self):
        if self.n_reducers < 1:
            raise ValueError("need at least one reducer partition")
        if self.n_workers < 1:
            raise ValueError("need at least one worker")

    def owner_of(self, partition: int) -> int:
        """The worker that runs Sort+Reduce for ``partition``."""
        if not 0 <= partition < self.n_reducers:
            raise ValueError(f"partition {partition} out of range")
        return partition % self.n_workers

    def owned_partitions(self, worker: int) -> list[int]:
        """All partitions ``worker`` owns, in ascending order."""
        if not 0 <= worker < self.n_workers:
            raise ValueError(f"worker {worker} out of range")
        return list(range(worker, self.n_reducers, self.n_workers))


@dataclass
class MapWork:
    """Everything the cluster simulator needs to know about one chunk's
    map task.

    Built either from a *functional* kernel run (counts measured) or from
    the *analytic* workload model (counts predicted) — the simulator does
    not care which.
    """

    chunk_id: int
    gpu: int  # global GPU index executing this chunk
    upload_bytes: int  # ghost-padded brick payload
    n_rays: int  # padded kernel thread count
    n_samples: int  # trilinear samples taken
    pairs_emitted: int  # kernel emissions incl. placeholders (D2H size)
    pairs_to_reducer: np.ndarray  # (n_reducers,) kept pairs routed to each reducer
    read_from_disk: bool = False

    def __post_init__(self):
        # Ufunc reductions: np.any and ndarray.sum are Python wrappers.
        routed = self.pairs_to_reducer = np.asarray(self.pairs_to_reducer, dtype=np.int64)
        if np.minimum.reduce(routed, axis=None, initial=0) < 0:
            raise ValueError("negative pair counts")
        if self.pairs_emitted < np.add.reduce(routed, axis=None):
            raise ValueError("emitted fewer pairs than routed")


@dataclass
class InProcessResult:
    """Functional job output."""

    outputs: list[tuple[np.ndarray, np.ndarray]]  # per reducer: (keys, values)
    stats: JobStats
    pairs_per_reducer: np.ndarray
    works: list[MapWork]  # per-chunk counters, reusable by the simulator


def map_chunks_to_runs(
    spec, chunks: Sequence[Chunk]
) -> list[tuple[list[np.ndarray], int, int, dict, np.ndarray]]:
    """Map + Partition ``chunks`` as **one launch**: the per-"GPU" half
    of the pipeline.

    Returns one ``(per-reducer runs, emitted, kept, work counters,
    routed)`` tuple per chunk — bitwise what mapping each chunk on its
    own returns, in any grouping (mappers guarantee it for
    ``map_batch``; the fused ray-cast launch proves it per ray).
    ``spec`` only needs the ``mapper``/``partitioner``/``combiner``/
    ``kv``/``max_key``/``n_reducers`` attributes, so both a
    :class:`~repro.core.job.MapReduceSpec` and the pool workers' frame
    context qualify — the multiprocess executor's bitwise parity with
    :class:`InProcessExecutor` holds *by construction* because every
    execution path runs this exact function, so the run layout a
    reducer receives is identical no matter which transport carried it.

    The first chunk's work counters carry ``launches=1`` (the others 0),
    so a frame's launch count survives whatever carries the counters
    (:func:`map_telemetry` sums it).
    """
    return _route_outputs(spec, spec.mapper.map_batch(chunks))


def map_chunk_to_runs(
    spec, chunk: Chunk
) -> tuple[list[np.ndarray], int, int, dict, np.ndarray]:
    """Map + Partition one chunk: :func:`map_chunks_to_runs`, batch of one.

    Enters through the mapper's plain ``map`` — by the
    :class:`~repro.core.api.Mapper` contract the same as
    ``map_batch([chunk])[0]`` — which is the method a caller wraps to
    instrument a mapper (the end-to-end benchmark's replay does).
    """
    return _route_outputs(spec, [spec.mapper.map(chunk)])[0]


def _route_outputs(spec, outs) -> list:
    """Validate, combine and bucket one launch's map outputs: one pass
    over the launch's pairs, one result per chunk.

    A chunk's run for reducer ``r`` holds its pairs destined there in
    emission order (the stable counting sort downstream relies on it);
    all runs are views of one array ordered by (chunk, reducer).
    """
    kv = spec.kv
    n_red = spec.n_reducers
    pairs, cuts = concat_pairs([out.pairs for out in outs], kv)
    validate_pairs(pairs, kv, spec.max_key)
    real = kv.keys(pairs) != PLACEHOLDER
    if not real.all():
        real = np.nonzero(real)[0]
        cuts = np.searchsorted(real, cuts)
        pairs = _permute_records(pairs, real)
    if spec.combiner is not None:
        pairs, cuts = concat_pairs(
            [
                spec.combiner.combine(pairs[lo:hi])
                for lo, hi in zip(cuts.tolist(), cuts[1:].tolist())
            ],
            kv,
        )
    kept = np.diff(cuts)
    dests = spec.partitioner.partition(kv.keys(pairs))
    if len(dests) and not 0 <= dests.min() <= dests.max() < n_red:
        raise ValueError(f"partitioner routed a pair outside [0, {n_red})")
    # One stable order on (chunk, reducer) lays every run out contiguously.
    n_runs = len(outs) * n_red
    run_of = np.repeat(np.arange(0, n_runs, n_red), kept) + dests
    pairs = _permute_records(pairs, stable_counting_order(run_of, n_runs))
    routed = np.bincount(run_of, minlength=n_runs)
    run_cuts = np.zeros(n_runs + 1, dtype=np.int64)
    np.cumsum(routed, out=run_cuts[1:])
    run_cuts = run_cuts.tolist()
    runs = [pairs[lo:hi] for lo, hi in zip(run_cuts, run_cuts[1:])]
    return [
        (
            runs[c * n_red : (c + 1) * n_red],
            len(out.pairs),
            n_kept,
            dict(out.work, launches=int(c == 0)),
            routed[c * n_red : (c + 1) * n_red],
        )
        for c, (out, n_kept) in enumerate(zip(outs, kept.tolist()))
    ]


def map_telemetry(works: Iterable[dict]) -> dict:
    """A frame's map-stage gauges from its per-chunk work counters:
    kernel launches, the samples the march positioned (what is left of
    ``n_samples`` after the occupied-box trim), and which march ran
    (``"c"``, ``"numpy"`` or both, comma-separated) and why — reported
    wherever the chunks were mapped."""
    works = list(works)
    gauges = {
        "map.launches": int(sum([w.get("launches", 0) for w in works])),
        "map.positioned_samples": int(sum([w.get("n_positioned", 0) for w in works])),
    }
    for key in ("march", "march_reason"):
        seen = sorted({w[key] for w in works if w.get(key)})
        if seen:
            gauges[f"map.{key}"] = ",".join(seen)
    return gauges


def map_span_name(first: int, last: int) -> str:
    """Name of the one tracer span that covers a launch of the chunks
    with frame indices ``first..last``."""
    return f"map:chunks={first}-{last}"


def merge_partition_runs(
    spec, runs_per_chunk: Sequence[Sequence[Optional[np.ndarray]]]
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Sort + Reduce every partition from its chunk-ordered runs: one
    Sort and one Reduce for all of them.

    ``runs_per_chunk[ci][r]`` is chunk ``ci``'s run for reducer ``r``
    (None or empty when nothing was routed there).  Each partition's
    runs are joined in chunk order and the partitions end to end, every
    pair tagged with its partition; one stable counting order on the key
    over the whole array, one record permute and one
    ``spec.reducer.reduce_all`` call follow, and the reduced rows are
    split back per partition by the tag — never by the partitioner, so a
    worker's renumbered :class:`PartitionReduceSpec` runs it unchanged.

    This is bitwise the partition-at-a-time loop: keys are disjoint per
    partition, the stable sort keeps a key's pairs in chunk order either
    way, and a reducer reduces every key on its own (the
    :class:`~repro.core.api.Reducer` contract).  For distributed callers
    chunk order plus the stable sort is what makes results independent
    of completion order.  Returns per-reducer ``(keys, values)`` outputs
    (each partition's keys ascending) and received-pair counts.
    """
    n_red = spec.n_reducers
    # Distributed callers renumber their owned partitions 0..n-1; the
    # optional labels map the span back to job-level partition ids.
    labels = getattr(spec, "partition_labels", None)
    labels = list(range(n_red)) if labels is None else [int(p) for p in labels]
    frame_seq = getattr(spec, "frame_seq", None)
    parts = [
        [
            runs[r]
            for runs in runs_per_chunk
            if runs is not None and runs[r] is not None and len(runs[r])
        ]
        for r in range(n_red)
    ]
    pairs, cuts = concat_pairs([run for mine in parts for run in mine], spec.kv)
    pairs_per_reducer = np.diff(cuts[np.cumsum([0] + [len(mine) for mine in parts])])
    with span(
        f"reduce:partitions={','.join(map(str, labels))}",
        cat="reduce",
        partitions=labels,
        pairs=len(pairs),
        **({"frame": frame_seq} if frame_seq is not None else {}),
    ):
        keys = spec.kv.keys(pairs)
        order = stable_counting_order(keys, spec.max_key + 1)
        sorted_keys = np.take(keys, order)
        tags = np.take(np.repeat(np.arange(n_red), pairs_per_reducer), order)
        out_keys, values = spec.reducer.reduce_all(_permute_records(pairs, order))
        # A reduced key's partition is the tag of its first sorted pair.
        part_of = np.take(tags, np.searchsorted(sorted_keys, out_keys))
        by_part = stable_counting_order(part_of, n_red)
        out_keys = np.take(out_keys, by_part)
        values = np.take(values, by_part, axis=0)
        bounds = np.zeros(n_red + 1, dtype=np.int64)
        np.cumsum(np.bincount(part_of, minlength=n_red), out=bounds[1:])
    bounds = bounds.tolist()
    outputs = [
        (out_keys[lo:hi], values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    ]
    return outputs, pairs_per_reducer


@dataclass
class PartitionReduceSpec:
    """The minimal spec a distributed Sort+Reduce stage runs against.

    :func:`merge_partition_runs` only reads ``n_reducers`` / ``kv`` /
    ``max_key`` / ``reducer`` from its spec, so a worker that owns a
    *subset* of the partitions can renumber them ``0..n-1``, wrap the
    pieces in this view, and execute the **literal** function the
    in-process executor runs over its chunk-ordered runs — which is
    what makes the pool's worker-side reduce bitwise-identical to the
    in-process reduce by construction (reducer keys are disjoint per
    partition, so no cross-partition state exists to diverge on).
    """

    n_reducers: int
    kv: object
    max_key: int
    reducer: object
    # Job-level ids of the renumbered partitions (ascending, one per
    # local index) and the frame being reduced — only read by tracing,
    # so the reduce span names the global partition ids (not the
    # worker-local renumbering) and pipelined frames stay
    # distinguishable.
    partition_labels: Optional[Sequence[int]] = None
    frame_seq: Optional[int] = None


def make_map_work(
    chunk: Chunk, gpu: int, emitted: int, work: dict, routed: np.ndarray
) -> MapWork:
    """Assemble the per-chunk :class:`MapWork` record the simulator replays."""
    return MapWork(
        chunk_id=chunk.id,
        gpu=gpu,
        upload_bytes=chunk.nbytes,
        n_rays=int(work.get("n_rays", 0)),
        n_samples=int(work.get("n_samples", 0)),
        pairs_emitted=emitted,
        pairs_to_reducer=routed,
        read_from_disk=chunk.on_disk,
    )


class InProcessExecutor:
    """Run the full MapReduce pipeline functionally in this process."""

    def execute(
        self,
        spec: MapReduceSpec,
        chunks: Sequence[Chunk],
        chunk_to_gpu: Optional[Sequence[int]] = None,
    ) -> InProcessResult:
        """Execute ``spec`` over ``chunks``.

        ``chunk_to_gpu`` (optional) records which simulated GPU each
        chunk *would* run on, so the returned :class:`MapWork` items can
        be replayed on the simulated cluster for timing.
        """
        spec.mapper.initialize()
        spec.reducer.initialize()
        stats = JobStats()
        works: list[MapWork] = []
        runs_per_chunk: list[list[np.ndarray]] = []
        counters: list[dict] = []
        ci = 0
        for size in spec.mapper.launch_sizes(chunks):
            launch = chunks[ci : ci + size]
            with span(
                map_span_name(ci, ci + size - 1),
                cat="map",
                chunks=list(range(ci, ci + size)),
            ):
                results = map_chunks_to_runs(spec, launch)
            for chunk, (runs, emitted, kept, work, routed) in zip(
                launch, results
            ):
                runs_per_chunk.append(runs)
                counters.append(work)
                stats.add_map(work, emitted, kept)
                works.append(
                    make_map_work(
                        chunk,
                        chunk_to_gpu[ci] if chunk_to_gpu is not None else 0,
                        emitted,
                        work,
                        routed,
                    )
                )
                ci += 1
        stats.telemetry = build_job_telemetry(**map_telemetry(counters))
        outputs, pairs_per_reducer = merge_partition_runs(spec, runs_per_chunk)
        return InProcessResult(
            outputs=outputs,
            stats=stats,
            pairs_per_reducer=pairs_per_reducer,
            works=works,
        )

