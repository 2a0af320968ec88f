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
from .keyvalue import discard_placeholders, validate_pairs
from .scheduler import MapWork, SimOutcome, run_simulated_job
from .sort import counting_sort_pairs
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
    """The shuffle plane's partition-ownership and run-routing contract.

    Every execution path — the serial :class:`InProcessExecutor`, the
    pool parent, and the pool workers — shares this one object, so the
    three questions that decide where fragment bytes go always have the
    same answer everywhere:

    * **bucketing** (:meth:`bucket_runs`): how a chunk's partitioned
      pairs become one contiguous run per reducer partition (the
      Partition stage's output layout, streamed over rings and
      concatenated in chunk order by the Sort stage);
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

    def bucket_runs(
        self, pairs: np.ndarray, dests: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Split partitioned ``pairs`` into one run per reducer.

        Returns ``(runs, routed)`` where ``runs[r]`` holds the pairs
        destined for partition ``r`` (in emission order — the stable
        counting sort downstream relies on it) and ``routed[r]`` its
        length.  This is the literal Partition-stage bucketing every
        executor runs, so run layouts are identical by construction.
        """
        routed = np.zeros(self.n_reducers, dtype=np.int64)
        runs: list[np.ndarray] = []
        for r in range(self.n_reducers):
            sel = pairs[dests == r]
            routed[r] = len(sel)
            runs.append(sel)
        return runs, routed


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
    execution path runs this exact function.  Run bucketing goes
    through :meth:`ShuffleSpec.bucket_runs`, the same routing contract
    the shuffle planes use for ownership, so the run layout a reducer
    receives is identical no matter which transport carried it.

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
    """Validate, combine and bucket one launch's map outputs per chunk."""
    shuffle = ShuffleSpec(spec.n_reducers)
    results = []
    for out in outs:
        validate_pairs(out.pairs, spec.kv, spec.max_key)
        emitted = len(out.pairs)
        pairs = discard_placeholders(out.pairs, spec.kv)
        if spec.combiner is not None:
            pairs = spec.combiner.combine(pairs)
        kept = len(pairs)
        dests = spec.partitioner.partition(spec.kv.keys(pairs))
        runs, routed = shuffle.bucket_runs(pairs, dests)
        work = dict(out.work, launches=int(not results))
        results.append((runs, emitted, kept, work, routed))
    return results


def map_telemetry(works: Iterable[dict]) -> dict:
    """A frame's map-stage gauges from its per-chunk work counters:
    kernel launches, and bricks whose rays the span gate carved."""
    works = list(works)
    return {
        "map.launches": sum(int(w.get("launches", 0)) for w in works),
        "map.span_carved_bricks": sum(
            int(w.get("span_carved", 0)) for w in works
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
    for r in range(n_red):
        parts = [
            runs[r]
            for runs in runs_per_chunk
            if runs is not None and runs[r] is not None and len(runs[r])
        ]
        if parts:
            received = np.concatenate(parts)
        else:
            received = spec.kv.empty()
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
