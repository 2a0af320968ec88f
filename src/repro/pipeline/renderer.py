"""The end-to-end MapReduce volume renderer (the paper's application).

:class:`MapReduceVolumeRenderer` wires a volume, camera, and transfer
function into the library and executes frames functionally through
:class:`~repro.core.executors.InProcessExecutor` or the shared-memory
pool: real ray casting, real partition/sort/reduce, a real image out.
It keeps no clock of its own.

Timing a frame on the simulated 2010 cluster is the analysis side's job:
:mod:`repro.pipeline.workload` takes a renderer as its scene description
and either predicts every brick's work (``simulate_frame``,
``simulate_sequence``) or prices the work counters a functional frame
measured (``replay``).  That module imports this one; nothing here
imports the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.chunk import Chunk
from ..core.executors import InProcessExecutor, MapWork
from ..core.job import MapReduceSpec
from ..core.keyvalue import KVSpec
from ..core.partition import RoundRobinPartitioner
from ..core.api import Partitioner
from ..core.stats import JobStats
from ..observability.tracer import span
from ..render.accel import volume_token
from ..render.camera import Camera
from ..render.fragments import FRAGMENT_DTYPE
from ..render.raycast import RenderConfig
from ..render.stitch import stitch_pixels
from ..render.transfer import TransferFunction1D, default_tf
from ..volume.bricking import BrickGrid, bricks_for_gpu_count
from ..volume.volume import Volume
from .mappers import RayCastMapper
from .reducers import CompositeReducer

__all__ = ["FrameHandle", "RenderResult", "MapReduceVolumeRenderer", "check_vram"]


@dataclass
class RenderResult:
    """Output of one rendered frame."""

    image: np.ndarray  # (h, w, 4) premultiplied RGBA
    stats: JobStats  # work counters
    works: list[MapWork]  # per-chunk counters, what a simulated replay prices
    n_bricks: int
    n_gpus: int


@dataclass
class FrameHandle:
    """An in-flight frame started by
    :meth:`MapReduceVolumeRenderer.submit_frame`; redeem it with
    :meth:`MapReduceVolumeRenderer.collect_frame`."""

    camera: Camera
    grid: "BrickGrid"
    pending: object  # executor PendingFrame, or a finished result
    asynchronous: bool  # whether `pending` still needs executor.collect()


def check_vram(grid: BrickGrid, cluster) -> None:
    """Refuse ``grid`` if its largest brick exceeds the largest VRAM of
    ``cluster`` — any object with ``gpu_specs()`` whose items carry
    ``vram_bytes``, such as a :class:`~repro.sim.node.ClusterSpec`."""
    max_vram = max(g.vram_bytes for g in cluster.gpu_specs())
    oversized = grid.max_brick_nbytes()
    if oversized > max_vram:
        raise MemoryError(
            f"brick of {oversized} B exceeds GPU VRAM {max_vram} B; "
            "use more bricks per GPU"
        )


class MapReduceVolumeRenderer:
    """Facade assembling the full pipeline.

    Parameters
    ----------
    volume:
        In-core volume; every functional frame needs one.  Without it
        the renderer is a scene description for simulated workloads, or
        builds the map spec (:meth:`_spec`) of chunks the caller loads
        itself, as ``examples/out_of_core.py`` streams bricks from disk.
    cluster:
        A GPU count, or a cluster description such as
        :class:`~repro.sim.node.ClusterSpec`, read by duck typing
        (``gpu_count``, ``gpu_specs()``).  The count sets the bricking
        and the reducer partitions.  A description also states each
        GPU's VRAM, and every frame refuses a brick larger than that; a
        bare count states no VRAM, so no brick is refused.
    tf, render_config:
        Transfer function and ray-cast knobs (:class:`RenderConfig`:
        step, early termination, shading, placeholder emission and the
        empty-space machinery ``accel``); defaults match the paper.
    field:
        Procedural dataset field for simulated workloads.
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
    reduce_mode, shuffle_mode:
        Vestigial: the pool has one data path — map on the workers,
        exchange over the shared-memory edge mesh, Sort+Reduce on the
        worker that owns each partition — so only ``reduce_mode=
        "worker"`` and ``shuffle_mode`` ``"auto"`` or ``"mesh"`` are
        accepted; the removed ``"parent"`` and ``"tcp"`` values raise
        ``ValueError``.  Both parameters stay only until the benchmark
        harness stops passing them (ROADMAP item 1(d)).
    pipeline_depth:
        Max frames in flight for the pool executor's async
        :meth:`submit_frame`/:meth:`collect_frame` pipeline: an orbit
        submits frame *k+1* before it collects frame *k*.  1 (default)
        is fully synchronous; 2 double-buffers: workers map+reduce frame
        *k+1* while the parent stitches frame *k*.
    fault_plan:
        Deterministic worker faults for the pool executor (see
        :mod:`repro.parallel.faults`), to exercise its always-on
        recovery: respawn the workers, re-execute the in-flight frames
        bitwise-identically, degrade to fewer workers and finally to
        serial execution.

    ``workers``, ``reduce_mode``, ``shuffle_mode``, ``pipeline_depth``
    and ``fault_plan`` are pool settings: any other executor refuses
    each one given a value other than its default.  A pool executor is
    built here, so a bad pool setting raises ``ValueError`` at
    construction; its worker processes start with the first frame.
    """

    def __init__(
        self,
        volume: Optional[Volume] = None,
        cluster: object = 1,
        tf: Optional[TransferFunction1D] = None,
        render_config: Optional[RenderConfig] = None,
        field: Optional[Callable] = None,
        volume_shape: Optional[tuple[int, int, int]] = None,
        partitioner_factory: Optional[Callable[[int], Partitioner]] = None,
        executor: str | object = "inprocess",
        workers: Optional[int] = None,
        reduce_mode: Optional[str] = None,
        pipeline_depth: int = 1,
        shuffle_mode: str = "auto",
        fault_plan: Optional[str] = None,
    ):
        if volume is None and volume_shape is None:
            raise ValueError("need a volume or a volume_shape")
        self.volume = volume
        self.volume_shape = tuple(volume.shape if volume is not None else volume_shape)
        self.field = field
        if hasattr(cluster, "gpu_count"):
            self.cluster_spec = cluster
            self.n_gpus = int(cluster.gpu_count)
        else:
            self.cluster_spec = None  # a bare count: no VRAM stated
            self.n_gpus = int(cluster)
        if self.n_gpus < 1:
            raise ValueError("need at least one GPU")
        self.tf = tf if tf is not None else default_tf()
        self.render_config = render_config if render_config is not None else RenderConfig()
        self.kv = KVSpec(FRAGMENT_DTYPE, key_field="pixel")
        self._partitioner_factory = partitioner_factory or RoundRobinPartitioner
        if isinstance(executor, str) and executor not in ("inprocess", "pool"):
            raise ValueError(f"unknown executor {executor!r}")
        if executor == "pool":
            from ..parallel.pool import check_modes

            check_modes(reduce_mode or "worker", shuffle_mode)
        else:
            pool_only = {
                "a worker count": workers is not None,
                "a reduce mode": reduce_mode is not None,
                "a shuffle mode": shuffle_mode != "auto",
                "a pipeline depth": pipeline_depth != 1,
                "a fault plan": bool(fault_plan),
            }
            for what, given in pool_only.items():
                if given:
                    raise ValueError(f"{what} needs the pool executor")
        if pipeline_depth < 1:
            raise ValueError("pipeline depth must be at least 1")
        self.executor = executor
        self.workers = workers
        self.pipeline_depth = int(pipeline_depth)
        self.fault_plan = fault_plan
        self._exec_instance = None
        self._chunk_memo: tuple = (None, None, [])  # (key, grid, in-core chunks)
        if executor == "pool":
            self._executor()

    # -- executor lifecycle ------------------------------------------------
    def _executor(self):
        """The functional executor (created once — for ``"pool"`` at
        construction — and reused across frames).

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
                    pipeline_depth=self.pipeline_depth,
                    fault_plan=self.fault_plan,
                )
            else:
                self._exec_instance = InProcessExecutor()
        return self._exec_instance

    @property
    def executor_workers(self) -> Optional[int]:
        """Worker count of the active executor (None when serial or not
        yet instantiated) — what a pool render actually ran with."""
        return getattr(self._exec_instance, "workers", None)

    @property
    def executor_shuffle_mode(self) -> Optional[str]:
        """Shuffle plane of the active executor — ``"mesh"`` for the pool,
        what ``JobStats.ring["shuffle_mode"]`` reports too; None when
        serial or not yet instantiated."""
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

    def _in_core_chunks(
        self, grid: Optional[BrickGrid], bricks_per_gpu: int = 0
    ) -> tuple[BrickGrid, list[Chunk]]:
        """``grid`` (None: :meth:`_grid` of ``bricks_per_gpu``) and its
        chunks with their payloads extracted — both remembered for the
        last bricking (one copy of the volume plus ghosts), since an
        orbit asks for the same ones frame after frame.  Invalidating
        the volume after an in-place edit changes its token."""
        if self.volume is None:
            raise ValueError("in-core render needs an in-core volume")
        how = bricks_per_gpu if grid is None else (grid.volume_shape, grid.brick_size, grid.ghost)
        key = (volume_token(self.volume), how)
        if key[0] is None or key != self._chunk_memo[0]:
            grid = grid or self._grid(bricks_per_gpu)
            chunks = [
                Chunk(id=b.id, nbytes=b.nbytes, data=grid.extract(self.volume, b), meta=b)
                for b in grid
            ]
            self._chunk_memo = (key, grid, chunks)
        return self._chunk_memo[1:]

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

    # -- public API -----------------------------------------------------------
    def render(
        self,
        camera: Camera,
        bricks_per_gpu: int = 2,
        grid: Optional[BrickGrid] = None,
    ) -> RenderResult:
        """Render one frame: exactly one submit/collect round trip, so
        chunk construction and placement live only in
        :meth:`submit_frame`."""
        handle = self.submit_frame(camera, bricks_per_gpu=bricks_per_gpu, grid=grid)
        return self.collect_frame(handle)

    def submit_frame(
        self,
        camera: Camera,
        bricks_per_gpu: int = 2,
        grid: Optional[BrickGrid] = None,
    ) -> FrameHandle:
        """Start a functional frame without waiting for it.

        With a pool executor and ``pipeline_depth > 1`` this is the
        async half of the double-buffered orbit pipeline: map (and
        worker-side reduce) work for this frame is enqueued — and its
        arena published — while previously submitted frames are still
        being collected and stitched.  With a synchronous executor the frame simply runs to
        completion here.  Redeem the handle with :meth:`collect_frame`;
        frames complete in submission order.
        """
        grid, chunks = self._in_core_chunks(grid, bricks_per_gpu)
        self._check_grid(grid)
        spec = self._spec(camera)
        chunk_to_gpu = [c.id % self.n_gpus for c in chunks]
        ex = self._executor()
        if hasattr(ex, "submit") and hasattr(ex, "collect"):
            return FrameHandle(camera, grid, ex.submit(spec, chunks, chunk_to_gpu), True)
        return FrameHandle(camera, grid, ex.execute(spec, chunks, chunk_to_gpu), False)

    def collect_frame(self, handle: FrameHandle) -> RenderResult:
        """Finish a frame started by :meth:`submit_frame` and stitch it."""
        if handle.asynchronous:
            result = self._executor().collect(handle.pending)
        else:
            result = handle.pending
        parts = [
            (keys, values) for keys, values in result.outputs if len(keys)
        ]
        camera = handle.camera
        with span("stitch", cat="stitch", parts=len(parts)):
            image = stitch_pixels(parts, camera.width, camera.height)
        return RenderResult(
            image=image,
            stats=result.stats,
            works=result.works,
            n_bricks=len(handle.grid),
            n_gpus=self.n_gpus,
        )

    @property
    def frame_pipeline_depth(self) -> int:
        """Frames the active executor can keep in flight (1 = serial)."""
        ex = self._executor()
        if hasattr(ex, "submit") and hasattr(ex, "collect"):
            return int(getattr(ex, "pipeline_depth", 1))
        return 1

    def _check_grid(self, grid: BrickGrid) -> None:
        if self.cluster_spec is not None:
            check_vram(grid, self.cluster_spec)
