"""The end-to-end MapReduce volume renderer (the paper's application).

:class:`MapReduceVolumeRenderer` wires a volume, camera, and transfer
function into the library:

* **exec mode** — functional execution through
  :class:`~repro.core.executors.InProcessExecutor`: real ray casting,
  real partition/sort/reduce, a real image out.  The per-chunk work
  counters it measures can be *replayed* on the simulated cluster for
  timing (mode ``"both"``).
* **sim mode** — timing-only execution: the analytic workload model
  predicts every brick's kernel work and traffic, and the discrete-event
  scheduler produces the paper's stage breakdown.  This is how the
  1024³-scale figures are regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.chunk import Chunk
from ..core.executors import InProcessExecutor, SimClusterExecutor
from ..core.job import JobConfig, MapReduceSpec
from ..core.keyvalue import KVSpec
from ..core.partition import RoundRobinPartitioner
from ..core.api import Partitioner
from ..core.scheduler import MapWork, SimOutcome
from ..core.stats import JobStats
from ..observability.tracer import span
from ..render.accel import volume_token
from ..render.camera import Camera
from ..render.fragments import FRAGMENT_DTYPE, FRAGMENT_NBYTES
from ..render.raycast import RenderConfig
from ..render.stitch import stitch_pixels
from ..render.transfer import TransferFunction1D, default_tf
from ..sim.node import ClusterSpec
from ..sim.presets import accelerator_cluster
from ..volume.bricking import BrickGrid, bricks_for_gpu_count
from ..volume.occupancy import grid_occupancy
from ..volume.volume import Volume
from .mappers import RayCastMapper
from .reducers import CompositeReducer
from .workload import build_workload

# plan_residency / strip_uploads are imported lazily inside
# render_sequence to avoid an import cycle with pipeline.outofcore.

__all__ = ["FrameHandle", "RenderResult", "MapReduceVolumeRenderer"]


@dataclass
class RenderResult:
    """Output of one rendered frame."""

    image: Optional[np.ndarray]  # (h, w, 4) premultiplied RGBA (exec modes)
    outcome: Optional[SimOutcome]  # stage timings (sim / both modes)
    stats: Optional[JobStats]  # work counters (exec modes)
    n_bricks: int
    n_gpus: int

    @property
    def runtime(self) -> float:
        if self.outcome is None:
            raise ValueError("no timing available (exec-only render)")
        return self.outcome.total_runtime


@dataclass
class FrameHandle:
    """An in-flight frame started by
    :meth:`MapReduceVolumeRenderer.submit_frame`; redeem it with
    :meth:`MapReduceVolumeRenderer.collect_frame`."""

    camera: Camera
    grid: "BrickGrid"
    pending: object  # executor PendingFrame, or a finished result
    asynchronous: bool  # whether `pending` still needs executor.collect()


class MapReduceVolumeRenderer:
    """Facade assembling the full pipeline.

    Parameters
    ----------
    volume:
        In-core volume (exec modes) — optional when only sim mode with a
        procedural ``field`` is used.
    cluster:
        A :class:`~repro.sim.node.ClusterSpec` or a GPU count (builds the
        paper's AC preset).
    tf, render_config, job_config:
        Transfer function and knobs; defaults match the paper.
    field:
        Procedural dataset field for out-of-core / sim workloads.
    volume_shape:
        Required when ``volume`` is None.
    executor, workers:
        Functional execution backend: ``"inprocess"`` (serial, default),
        ``"pool"`` (the :mod:`repro.parallel` shared-memory multiprocess
        executor, ``workers`` processes — default one per simulated GPU
        capped to the machine's cores), or any object exposing
        ``execute(spec, chunks, chunk_to_gpu)``.  Pool renderers should
        be closed (or used as context managers) to release worker
        processes and shared memory.
    reduce_mode:
        Where the pool executor runs Sort+Reduce: ``"parent"`` (default)
        or ``"worker"`` (each worker reduces its owned partitions and
        ships back composited pixel spans — the paper's symmetric
        layout).  Bitwise-identical output either way; ignored by the
        in-process executor, which is its own single device.
    shuffle_mode:
        Which shuffle plane moves fragment runs between pool processes:
        ``"parent"`` (runs route through the parent, the PR-2/3
        layout), ``"mesh"`` (direct worker↔worker shared-memory edge
        rings — the paper's GPUs exchanging fragments over the
        interconnect, parent demoted to a pure control plane), ``"tcp"``
        (the same record protocol streamed worker↔worker over
        AF_UNIX/TCP sockets — the multi-host regime; requires
        ``reduce_mode="worker"``), or ``"auto"`` (default: mesh exactly
        when workers reduce; never tcp).  Bitwise-identical output on
        every plane.
    host_spec:
        Socket-plane host placement (tcp only): an int (workers spread
        round-robin over that many "hosts") or a comma-separated/id
        sequence assigning each worker a host id.  Host 0 holds the
        shared-memory arena; workers placed off host 0 receive chunk
        payloads over the wire instead of attaching the arena.
    pin_workers:
        Opt-in NUMA/core pinning for pool workers: each worker is
        pinned to a distinct core before allocating its inbound mesh
        edges.  No-op with a warning when affinity is unavailable or
        cores < workers.
    pipeline_depth:
        Max frames in flight for the pool executor's async
        :meth:`submit_frame`/:meth:`collect_frame` pipeline (used by
        :func:`~repro.pipeline.driver.render_rotation` for exec-mode
        orbits).  1 (default) is fully synchronous; 2 double-buffers:
        workers map+reduce frame *k+1* while the parent stitches frame
        *k*.
    accel:
        Override for :attr:`RenderConfig.accel` — the ray caster's
        empty-space machinery (``"table"``, the default: the corner-max
        table and the occupied-box trim; ``"off"``).  Both settings
        produce bitwise-identical images and counters.  The structures
        are cached per volume+tf+brick in each process, so an orbit
        builds them once.
    kernel:
        Override for :attr:`RenderConfig.kernel` — the march-kernel
        backend (``"auto"``/``"numpy"``/``"numba"``).  ``"auto"`` is
        resolved to a concrete backend at construction and pinned, so
        parent and pool workers provably run the same marcher (workers
        JIT-warm it at spawn and fail fast if they cannot provide it).
    supervise, max_frame_retries, fault_plan:
        Pool-executor fault tolerance (ignored by the in-process
        executor): ``supervise`` (default True) recovers infrastructure
        failures in place — respawn the workers, re-execute the
        in-flight frames bitwise-identically, degrade to fewer workers
        and finally to serial execution when ``max_frame_retries`` is
        exhausted.  ``fault_plan`` injects deterministic worker faults
        (see :mod:`repro.parallel.faults`) for testing/benchmarking.
    """

    def __init__(
        self,
        volume: Optional[Volume] = None,
        cluster: ClusterSpec | int = 1,
        tf: Optional[TransferFunction1D] = None,
        render_config: Optional[RenderConfig] = None,
        job_config: Optional[JobConfig] = None,
        field: Optional[Callable] = None,
        volume_shape: Optional[tuple[int, int, int]] = None,
        partitioner_factory: Optional[Callable[[int], Partitioner]] = None,
        executor: str | object = "inprocess",
        workers: Optional[int] = None,
        reduce_mode: str = "parent",
        pipeline_depth: int = 1,
        shuffle_mode: str = "auto",
        host_spec=None,
        pin_workers: bool = False,
        accel: Optional[str] = None,
        kernel: Optional[str] = None,
        supervise: Optional[bool] = None,
        max_frame_retries: Optional[int] = None,
        fault_plan: Optional[str] = None,
    ):
        if volume is None and volume_shape is None:
            raise ValueError("need a volume or a volume_shape")
        self.volume = volume
        self.volume_shape = tuple(volume.shape if volume is not None else volume_shape)
        self.field = field
        self.cluster_spec = (
            cluster if isinstance(cluster, ClusterSpec) else accelerator_cluster(cluster)
        )
        self.tf = tf if tf is not None else default_tf()
        self.render_config = render_config if render_config is not None else RenderConfig()
        if accel is not None or kernel is not None:
            # Convenience overrides for the empty-space machinery and
            # the march-kernel backend, so callers need not rebuild a
            # whole RenderConfig to flip them.
            overrides = {}
            if accel is not None:
                overrides["accel"] = accel
            if kernel is not None:
                overrides["kernel"] = kernel
            self.render_config = replace(self.render_config, **overrides)
        # Resolve "auto" to a concrete backend exactly once, here in the
        # parent: the pinned name rides the pickled mapper config into
        # every pool worker, where resolution is strict — a worker that
        # cannot provide the parent's backend fails fast at warmup
        # instead of silently rendering with a different marcher.
        from ..render.kernels import resolve_kernel

        self.render_config = replace(
            self.render_config,
            kernel=resolve_kernel(self.render_config.kernel).name,
        )
        self.job_config = job_config if job_config is not None else JobConfig()
        self.kv = KVSpec(FRAGMENT_DTYPE, key_field="pixel")
        self._partitioner_factory = partitioner_factory or RoundRobinPartitioner
        if isinstance(executor, str) and executor not in ("inprocess", "pool"):
            raise ValueError(f"unknown executor {executor!r}")
        if reduce_mode not in ("parent", "worker"):
            raise ValueError(f"unknown reduce_mode {reduce_mode!r}")
        if shuffle_mode not in ("auto", "parent", "mesh", "tcp"):
            raise ValueError(f"unknown shuffle_mode {shuffle_mode!r}")
        if pipeline_depth < 1:
            raise ValueError("pipeline depth must be at least 1")
        self.executor = executor
        self.workers = workers
        self.reduce_mode = reduce_mode
        self.shuffle_mode = shuffle_mode
        self.host_spec = host_spec
        self.pin_workers = bool(pin_workers)
        self.pipeline_depth = int(pipeline_depth)
        self.supervise = supervise
        self.max_frame_retries = max_frame_retries
        self.fault_plan = fault_plan
        self._exec_instance = None
        self._chunk_memo: tuple = (None, [])  # (key, in-core chunks)

    @property
    def n_gpus(self) -> int:
        return self.cluster_spec.gpu_count

    # -- executor lifecycle ------------------------------------------------
    def _executor(self):
        """The functional executor (created lazily, reused across frames).

        ``executor="pool"`` builds a
        :class:`~repro.parallel.SharedMemoryPoolExecutor` with one worker
        per simulated GPU by default (capped to the machine's cores), so
        the ``chunk_to_gpu`` placement the library already records maps
        straight onto real processes.  Any object with a compatible
        ``execute`` method is also accepted.
        """
        if self._exec_instance is None:
            if not isinstance(self.executor, str):
                self._exec_instance = self.executor
            elif self.executor == "pool":
                from ..parallel import SharedMemoryPoolExecutor, default_pool_workers

                workers = self.workers
                if workers is None:
                    workers = default_pool_workers(self.n_gpus)
                self._exec_instance = SharedMemoryPoolExecutor(
                    workers=workers,
                    config=self.job_config,
                    reduce_mode=self.reduce_mode,
                    pipeline_depth=self.pipeline_depth,
                    shuffle_mode=self.shuffle_mode,
                    host_spec=self.host_spec,
                    pin_workers=self.pin_workers,
                    supervise=self.supervise,
                    max_frame_retries=self.max_frame_retries,
                    fault_plan=self.fault_plan,
                    kernel=self.render_config.kernel,
                )
            else:
                self._exec_instance = InProcessExecutor(self.job_config)
        return self._exec_instance

    @property
    def executor_workers(self) -> Optional[int]:
        """Worker count of the active executor (None when serial or not
        yet instantiated) — what a pool render actually ran with."""
        return getattr(self._exec_instance, "workers", None)

    @property
    def executor_shuffle_mode(self) -> Optional[str]:
        """Effective shuffle plane of the active executor (``"parent"``,
        ``"mesh"``, or ``"tcp"``; None when serial or not yet
        instantiated) — the plane that actually carries run bytes, which
        is what ``JobStats.ring["shuffle_mode"]`` reports too (a mesh
        request under parent-side reduce degenerates to ``"parent"``)."""
        return getattr(self._exec_instance, "effective_shuffle_mode", None)

    @property
    def executor_recovery_summary(self) -> list[str]:
        """Human-readable recovery ledger of the active pool executor
        (empty for failure-free runs, serial executors, or before the
        pool is instantiated) — what the CLI prints after a render."""
        sup = getattr(self._exec_instance, "_supervisor", None)
        return sup.summary_lines() if sup is not None else []

    def close(self) -> None:
        """Shut down the executor (worker processes, shared memory)."""
        inst = self._exec_instance
        self._exec_instance = None
        if inst is not None and hasattr(inst, "close"):
            inst.close()

    def __enter__(self) -> "MapReduceVolumeRenderer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------
    def _grid(self, bricks_per_gpu: int) -> BrickGrid:
        return bricks_for_gpu_count(self.volume_shape, self.n_gpus, bricks_per_gpu)

    def _chunks(self, grid: BrickGrid, out_of_core: bool) -> list[Chunk]:
        if not out_of_core:
            return self._in_core_chunks(grid)
        chunks = []
        for b in grid:
            if self.field is None and self.volume is None:
                raise ValueError("out-of-core render needs a field or volume")
            if self.field is not None:
                loader = (lambda bb=b: grid.extract_from_field(self.field, bb))
            else:
                loader = (lambda bb=b: grid.extract(self.volume, bb))
            chunks.append(
                Chunk(id=b.id, nbytes=b.nbytes, loader=loader, on_disk=True, meta=b)
            )
        return chunks

    def _in_core_chunks(self, grid: BrickGrid) -> list[Chunk]:
        """The grid's chunks with their payloads extracted — remembered
        for the last grid (one copy of the volume plus ghosts), since an
        orbit asks for the same ones frame after frame.  Invalidating
        the volume after an in-place edit changes its token."""
        if self.volume is None:
            raise ValueError("in-core render needs an in-core volume")
        key = (
            volume_token(self.volume), grid.volume_shape, grid.brick_size, grid.ghost
        )
        if key[0] is None or key != self._chunk_memo[0]:
            chunks = [
                Chunk(
                    id=b.id,
                    nbytes=b.nbytes,
                    data=grid.extract(self.volume, b),
                    meta=b,
                )
                for b in grid
            ]
            self._chunk_memo = (key, chunks)
        return self._chunk_memo[1]

    def _spec(self, camera: Camera) -> MapReduceSpec:
        # The token keys the per-volume acceleration cache (and the pool
        # executor's publish-once arena) across an orbit's frames.
        token = volume_token(self.volume if self.volume is not None else self.field)
        return MapReduceSpec(
            mapper=RayCastMapper(
                camera,
                self.tf,
                self.volume_shape,
                self.render_config,
                accel_token=token,
            ),
            reducer=CompositeReducer(),
            partitioner=self._partitioner_factory(self.n_gpus),
            kv=self.kv,
            max_key=camera.pixel_count - 1,
        )

    def _occupancy(self, grid: BrickGrid) -> np.ndarray:
        threshold = self.tf.opacity_threshold_value()
        if self.volume is not None:
            return grid_occupancy(grid, threshold, volume=self.volume)
        return grid_occupancy(grid, threshold, field=self.field)

    # -- public API -----------------------------------------------------------
    def render(
        self,
        camera: Camera,
        mode: str = "exec",
        bricks_per_gpu: int = 2,
        out_of_core: bool = False,
        grid: Optional[BrickGrid] = None,
    ) -> RenderResult:
        """Render one frame.

        ``mode``: ``"exec"`` (functional image, no clock), ``"both"``
        (functional image + replayed timing), or ``"sim"`` (timing from
        the analytic workload, no image).
        """
        if mode not in ("exec", "both", "sim"):
            raise ValueError(f"unknown mode {mode!r}")
        grid = grid or self._grid(bricks_per_gpu)

        if mode == "sim":
            self._check_grid(grid)
            works = build_workload(
                grid,
                camera,
                self.render_config.dt,
                self._occupancy(grid),
                self._partitioner_factory(self.n_gpus),
                self.n_gpus,
                emit_placeholders=True,
                on_disk=out_of_core,
                ert=self.render_config.ert_alpha < 1.0,
                fetches_per_sample=self.render_config.fetches_per_sample,
            )
            outcome, _ = SimClusterExecutor(self.cluster_spec, self.job_config).execute(
                works, pair_nbytes=FRAGMENT_NBYTES
            )
            return RenderResult(
                image=None,
                outcome=outcome,
                stats=None,
                n_bricks=len(grid),
                n_gpus=self.n_gpus,
            )

        # Functional execution: the synchronous render is exactly one
        # submit/collect round trip, so chunk construction and placement
        # live only in submit_frame.
        handle = self.submit_frame(
            camera, bricks_per_gpu=bricks_per_gpu,
            out_of_core=out_of_core, grid=grid,
        )
        return self.collect_frame(handle, mode=mode)

    def submit_frame(
        self,
        camera: Camera,
        bricks_per_gpu: int = 2,
        out_of_core: bool = False,
        grid: Optional[BrickGrid] = None,
    ) -> FrameHandle:
        """Start a functional frame without waiting for it.

        With a pool executor and ``pipeline_depth > 1`` this is the
        async half of the double-buffered orbit pipeline: map (and
        worker-side reduce) work for this frame is enqueued — and its
        arena, including any out-of-core chunk loads, published — while
        previously submitted frames are still being collected and
        stitched.  With a synchronous executor the frame simply runs to
        completion here.  Redeem the handle with :meth:`collect_frame`;
        frames complete in submission order.
        """
        grid = grid or self._grid(bricks_per_gpu)
        self._check_grid(grid)
        spec = self._spec(camera)
        chunks = self._chunks(grid, out_of_core)
        chunk_to_gpu = [c.id % self.n_gpus for c in chunks]
        ex = self._executor()
        if hasattr(ex, "submit") and hasattr(ex, "collect"):
            return FrameHandle(camera, grid, ex.submit(spec, chunks, chunk_to_gpu), True)
        return FrameHandle(camera, grid, ex.execute(spec, chunks, chunk_to_gpu), False)

    def collect_frame(self, handle: FrameHandle, mode: str = "exec") -> RenderResult:
        """Finish a frame started by :meth:`submit_frame` and stitch it.

        ``mode`` is ``"exec"`` or ``"both"`` (sim-mode frames have no
        functional execution to pipeline).
        """
        if mode not in ("exec", "both"):
            raise ValueError(f"unknown mode {mode!r} for collect_frame")
        if handle.asynchronous:
            result = self._executor().collect(handle.pending)
        else:
            result = handle.pending
        return self._finish_exec(handle.camera, mode, handle.grid, result)

    @property
    def frame_pipeline_depth(self) -> int:
        """Frames the active executor can keep in flight (1 = serial)."""
        ex = self._executor()
        if hasattr(ex, "submit") and hasattr(ex, "collect"):
            return int(getattr(ex, "pipeline_depth", 1))
        return 1

    def _check_grid(self, grid: BrickGrid) -> None:
        max_vram = max(g.vram_bytes for g in self.cluster_spec.gpu_specs())
        oversized = grid.max_brick_nbytes()
        if oversized > max_vram:
            raise MemoryError(
                f"brick of {oversized} B exceeds GPU VRAM {max_vram} B; "
                "use more bricks per GPU"
            )

    def _finish_exec(self, camera, mode, grid, result) -> RenderResult:
        parts = [
            (keys, values) for keys, values in result.outputs if len(keys)
        ]
        with span("stitch", cat="stitch", parts=len(parts)):
            image = stitch_pixels(parts, camera.width, camera.height)

        outcome = None
        if mode == "both":  # replay measured work on the simulated cluster
            outcome, _ = SimClusterExecutor(self.cluster_spec, self.job_config).execute(
                result.works, pair_nbytes=FRAGMENT_NBYTES
            )
            result.stats.breakdown = outcome.breakdown
            result.stats.bytes_uploaded = outcome.bytes_uploaded
            result.stats.bytes_downloaded = outcome.bytes_downloaded
            result.stats.bytes_internode = outcome.bytes_internode
            result.stats.bytes_intranode = outcome.bytes_intranode
            result.stats.n_messages = outcome.n_messages
        return RenderResult(
            image=image,
            outcome=outcome,
            stats=result.stats,
            n_bricks=len(grid),
            n_gpus=self.n_gpus,
        )

    def render_sequence(
        self,
        cameras: Sequence[Camera],
        bricks_per_gpu: int = 2,
        out_of_core: bool = False,
        resident: bool = True,
    ) -> list[RenderResult]:
        """Simulate an interactive frame sequence (sim mode only).

        With ``resident=True`` and a grid that fits each GPU's VRAM
        (checked by :func:`~repro.pipeline.outofcore.plan_residency`),
        only the first frame pays brick uploads; later frames re-render
        from residency — the paper's "obvious speed benefits" of the
        in-core regime.  When the volume does not fit, every frame
        streams its bricks (out-of-core regime).
        """
        from .outofcore import plan_residency, strip_uploads

        if not cameras:
            raise ValueError("need at least one camera")
        grid = self._grid(bricks_per_gpu)
        partitioner = self._partitioner_factory(self.n_gpus)
        occupancy = self._occupancy(grid)
        static = RayCastMapper(
            cameras[0], self.tf, self.volume_shape, self.render_config
        ).static_device_bytes()
        plan = plan_residency(grid, self.cluster_spec, static)
        results: list[RenderResult] = []
        for i, cam in enumerate(cameras):
            works = build_workload(
                grid,
                cam,
                self.render_config.dt,
                occupancy,
                partitioner,
                self.n_gpus,
                emit_placeholders=True,
                on_disk=out_of_core,
                ert=self.render_config.ert_alpha < 1.0,
                fetches_per_sample=self.render_config.fetches_per_sample,
            )
            if resident and plan.in_core and i > 0:
                works = strip_uploads(works)
            outcome, _ = SimClusterExecutor(
                self.cluster_spec, self.job_config
            ).execute(works, pair_nbytes=FRAGMENT_NBYTES)
            results.append(
                RenderResult(
                    image=None,
                    outcome=outcome,
                    stats=None,
                    n_bricks=len(grid),
                    n_gpus=self.n_gpus,
                )
            )
        return results
