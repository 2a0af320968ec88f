"""Executors: where a job runs.

* :class:`InProcessExecutor` — pure functional execution (no clock).  The
  algorithmic content of the library: map (launch by launch, as the
  mapper's ``launch_sizes`` cuts the chunk list) → partition
  (placeholder discard + routing) → sort (θ(n) counting sort) → reduce.
  Used by tests, examples, and the correctness half of every benchmark.
* :class:`SimClusterExecutor` — timing execution on the simulated
  cluster.  Consumes :class:`~repro.core.scheduler.MapWork` items whose
  counters come either from functional runs or from the analytic
  workload model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ..observability.metrics import build_job_telemetry
from ..observability.tracer import span
from ..sim.node import ClusterRuntime, ClusterSpec
from .chunk import Chunk
from .job import JobConfig, MapReduceSpec
from .keyvalue import PLACEHOLDER, concat_pairs, validate_pairs
from .scheduler import MapWork, SimOutcome, run_simulated_job
from .sort import _permute_records, counting_sort_pairs, stable_counting_order
from .stats import JobStats

__all__ = [
    "InProcessResult",
    "InProcessExecutor",
    "PartitionReduceSpec",
    "ShuffleSpec",
    "SimClusterExecutor",
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
      (and the pool's parent-side reduce) execute.

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

    def degrade(self, n_workers: int) -> "ShuffleSpec":
        """The same reducer partitions re-owned over a *shrunken* pool.

        This is the degradation step of the pool supervisor: after a
        worker slot is quarantined for repeated failures, every
        partition is deterministically re-assigned by the identical
        ``partition % n_workers`` rule over the surviving count.
        Because keys are disjoint per partition and reduced outputs are
        assembled in partition order, re-owning cannot change results —
        only who computes them (the property the recovery golden tests
        pin).
        """
        n_workers = int(n_workers)
        if not 1 <= n_workers <= self.n_workers:
            raise ValueError(
                f"can only degrade to 1..{self.n_workers} workers, "
                f"got {n_workers}"
            )
        return ShuffleSpec(self.n_reducers, n_workers)


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
    kernel launches, and the samples the march positioned (what is left
    of ``n_samples`` after the occupied-box trim)."""
    works = list(works)
    return {
        "map.launches": sum(int(w.get("launches", 0)) for w in works),
        "map.positioned_samples": sum(
            int(w.get("n_positioned", 0)) for w in works
        ),
    }


def map_span_name(first: int, last: int) -> str:
    """Name of the one tracer span that covers a launch of the chunks
    with frame indices ``first..last``."""
    return f"map:chunks={first}-{last}"


def merge_partition_runs(
    spec, runs_per_chunk: Sequence[Sequence[Optional[np.ndarray]]]
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Sort + Reduce every partition from its chunk-ordered runs.

    ``runs_per_chunk[ci][r]`` is chunk ``ci``'s run for reducer ``r``
    (None or empty when nothing was routed there).  Concatenation is in
    chunk order — for distributed callers this, plus the stable counting
    sort, is what makes results independent of completion order.
    Returns per-reducer ``(keys, values)`` outputs and received-pair
    counts.
    """
    n_red = spec.n_reducers
    # Distributed callers renumber their owned partitions 0..n-1; the
    # optional labels map spans back to job-level partition ids so the
    # trace shows `reduce:partition=<global p>` wherever it ran.
    labels = getattr(spec, "partition_labels", None)
    frame_seq = getattr(spec, "frame_seq", None)
    outputs: list[tuple[np.ndarray, np.ndarray]] = []
    pairs_per_reducer = np.zeros(n_red, dtype=np.int64)
    # Every partition's chunk-ordered runs end to end in one array:
    # partition r received pairs[ends[r]:ends[r + 1]].
    parts = [
        [
            runs[r]
            for runs in runs_per_chunk
            if runs is not None and runs[r] is not None and len(runs[r])
        ]
        for r in range(n_red)
    ]
    pairs, cuts = concat_pairs([run for mine in parts for run in mine], spec.kv)
    ends = cuts[np.cumsum([0] + [len(mine) for mine in parts])].tolist()
    for r in range(n_red):
        received = pairs[ends[r] : ends[r + 1]]
        pairs_per_reducer[r] = len(received)
        p = int(labels[r]) if labels is not None else r
        with span(
            f"reduce:partition={p}",
            cat="reduce",
            pairs=len(received),
            **({"frame": frame_seq} if frame_seq is not None else {}),
        ):
            sr = counting_sort_pairs(
                received, spec.kv.key_field, 0, spec.max_key
            )
            keys, values = spec.reducer.reduce_all(sr.pairs)
        outputs.append((keys, values))
    return outputs, pairs_per_reducer


@dataclass
class PartitionReduceSpec:
    """The minimal spec a distributed Sort+Reduce stage runs against.

    :func:`merge_partition_runs` only reads ``n_reducers`` / ``kv`` /
    ``max_key`` / ``reducer`` from its spec, so a worker that owns a
    *subset* of the partitions can renumber them ``0..n-1``, wrap the
    pieces in this view, and execute the **literal** parent-side
    function over its chunk-ordered runs — which is what makes
    worker-side reduce bitwise-identical to parent-side reduce by
    construction (reducer keys are disjoint per partition, so no
    cross-partition state exists to diverge on).
    """

    n_reducers: int
    kv: object
    max_key: int
    reducer: object
    # Job-level ids of the renumbered partitions (ascending, one per
    # local index) and the frame being reduced — only read by tracing,
    # so span names carry the global partition id (not the worker-local
    # renumbering) and pipelined frames stay distinguishable.
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

    def __init__(self, config: Optional[JobConfig] = None):
        # A `config=JobConfig()` default would be evaluated once at class
        # definition and shared by every instance; instantiate per-instance.
        self.config = config if config is not None else JobConfig()

    def execute(
        self,
        spec: MapReduceSpec,
        chunks: Sequence[Chunk],
        chunk_to_gpu: Optional[Sequence[int]] = None,
    ) -> InProcessResult:
        """Execute ``spec`` over ``chunks``.

        ``chunk_to_gpu`` (optional) records which simulated GPU each
        chunk *would* run on, so the returned :class:`MapWork` items can
        be replayed through :class:`SimClusterExecutor` for timing.
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


class SimClusterExecutor:
    """Replay :class:`MapWork` items on a simulated cluster for timing."""

    def __init__(self, cluster_spec: ClusterSpec, config: Optional[JobConfig] = None):
        self.cluster_spec = cluster_spec
        self.config = config if config is not None else JobConfig()

    def execute(
        self,
        works: Sequence[MapWork],
        pair_nbytes: int,
        owned_keys_per_reducer: Optional[np.ndarray] = None,
    ) -> tuple[SimOutcome, ClusterRuntime]:
        """Run the timing simulation; returns the outcome and the runtime
        (whose trace callers can inspect for Gantt-level detail)."""
        cluster = ClusterRuntime(self.cluster_spec)
        outcome = run_simulated_job(
            cluster,
            list(works),
            pair_nbytes=pair_nbytes,
            config=self.config,
            owned_keys_per_reducer=owned_keys_per_reducer,
        )
        return outcome, cluster
