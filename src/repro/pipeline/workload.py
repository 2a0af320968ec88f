"""Analytic workload model for figure-scale runs.

Python cannot functionally ray cast a 1024³ volume in benchmark time, so
the simulated benchmarks predict each brick's kernel work and fragment
traffic from geometry instead:

* **rays** — the block-padded screen footprint of the brick, computed
  exactly with the same camera math the functional kernel uses;
* **samples** — the brick's world volume divided by the volume of one
  sample cell at the brick's depth: a ray through depth ``z`` covers
  ``(z/f)²·dt`` world volume per step, so
  ``samples ≈ V_brick · (f/z)² / dt``, damped by an ERT/empty-space
  efficiency factor derived from occupancy;
* **kept fragments** — footprint pixels × the probability a ray hits at
  least one non-empty voxel on its chord,
  ``1 − (1−occupancy)^(chord/dt)``;
* **routing** — the partitioner applied to the *actual* footprint pixel
  keys (exact), scaled to the kept-fragment count.

Functional renders validate these predictions against measured counts
on small volumes (see ``tests/test_workload.py``).

This module is also the only code that times a renderer's frame on the
simulated cluster: :func:`simulate_frame` / :func:`simulate_sequence`
price the analytic workload, :func:`replay` a functional frame's
measured counters.  Each takes the renderer as its scene description, a
cluster (default: the renderer's own ClusterSpec, else the AC preset for
its GPU count) and a :class:`~repro.core.job.JobConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.api import Partitioner
from ..core.executors import MapWork
from ..core.job import JobConfig
from ..render.camera import Camera
from ..render.fragments import FRAGMENT_NBYTES
from ..sim.node import ClusterSpec
from ..sim.presets import accelerator_cluster
from ..sim.scheduler import SimClusterExecutor, SimOutcome
from ..volume.bricking import Brick, BrickGrid
from ..volume.occupancy import grid_occupancy
from .mappers import RayCastMapper
from .outofcore import plan_residency, strip_uploads
from .renderer import MapReduceVolumeRenderer, RenderResult, check_vram

__all__ = [
    "BrickWork",
    "build_workload",
    "model_brick_work",
    "replay",
    "simulate_frame",
    "simulate_sequence",
]


@dataclass
class BrickWork:
    """Predicted kernel work and traffic for one brick."""

    brick_id: int
    n_rays: int
    n_samples: int
    kept_fragments: int
    upload_bytes: int


def _brick_corners(brick: Brick) -> np.ndarray:
    lo, hi = brick.world_lo, brick.world_hi
    return np.array(
        [
            [
                (lo[0], hi[0])[(c >> 0) & 1],
                (lo[1], hi[1])[(c >> 1) & 1],
                (lo[2], hi[2])[(c >> 2) & 1],
            ]
            for c in range(8)
        ]
    )


#: Fraction of a projected box's corner-bounding-rectangle its actual
#: (hexagonal) silhouette covers, averaged over view angles.
_SILHOUETTE_FACTOR = 0.68


def model_brick_work(
    brick: Brick,
    camera: Camera,
    dt: float,
    occupancy: float,
    ert: bool = True,
) -> BrickWork:
    """Predict one brick's map-kernel work from geometry and occupancy.

    The sample count is exact geometry when early ray termination is off
    (the fixed-step kernel samples *every* owned lattice point — it does
    not skip empty space); with ERT on, opaque content terminates rays
    early, modelled as a linear damping in occupancy.  Kept fragments are
    the silhouette pixels times the fraction of the cross-section the
    occupied matter covers, ``occupancy^(2/3)`` for a compact region.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not 0.0 <= occupancy <= 1.0:
        raise ValueError("occupancy must be in [0, 1]")
    corners = _brick_corners(brick)
    rect = camera.brick_rect(corners, pad_to_block=True)
    tight = camera.brick_rect(corners, pad_to_block=False)
    if rect.empty:
        return BrickWork(brick.id, 0, 0, 0, brick.nbytes)
    center = (brick.world_lo + brick.world_hi) / 2.0
    _, _, fwd = camera.basis
    z = float(np.dot(center - np.asarray(camera.eye), fwd))
    z = max(z, 1e-6)
    f = camera.focal_pixels
    v_brick = float(np.prod(brick.world_hi - brick.world_lo))
    # A ray step at depth z sweeps (z/f)²·dt of world volume, so the
    # brick receives V·(f/z)²/dt samples.
    geo_samples = v_brick * (f / z) ** 2 / dt
    efficiency = (1.0 - 0.5 * occupancy) if ert else 1.0
    n_samples = int(geo_samples * efficiency)
    coverage = min(1.0, occupancy ** (2.0 / 3.0))
    kept = int(round(tight.area * _SILHOUETTE_FACTOR * coverage))
    return BrickWork(
        brick_id=brick.id,
        n_rays=rect.area,
        n_samples=n_samples,
        kept_fragments=min(kept, tight.area),
        upload_bytes=brick.nbytes,
    )


def _route_exact(
    kept: int, brick: Brick, camera: Camera, partitioner: Partitioner
) -> np.ndarray:
    """Split ``kept`` fragments over reducers using the real footprint keys."""
    routed = np.zeros(partitioner.n_reducers, dtype=np.int64)
    if kept == 0:
        return routed
    rect = camera.brick_rect(_brick_corners(brick), pad_to_block=False)
    if rect.empty:
        return routed
    px, py = rect.pixel_coords()
    keys = camera.pixel_index(px, py)
    dests = partitioner.partition(keys)
    hist = np.bincount(dests, minlength=partitioner.n_reducers).astype(np.float64)
    total = hist.sum()
    if total == 0:
        return routed
    routed = np.floor(hist * (kept / total)).astype(np.int64)
    # Distribute the rounding remainder to the largest shares.
    short = kept - int(routed.sum())
    if short > 0:
        order = np.argsort(-(hist - routed))
        routed[order[:short]] += 1
    return routed


def build_workload(
    grid: BrickGrid,
    camera: Camera,
    dt: float,
    occupancy: np.ndarray,
    partitioner: Partitioner,
    n_gpus: int,
    emit_placeholders: bool = True,
    on_disk: bool = False,
    ert: bool = True,
    fetches_per_sample: int = 1,
) -> list[MapWork]:
    """Model every brick and assign bricks to GPUs round-robin.

    ``occupancy`` is the per-brick array from
    :func:`repro.volume.occupancy.grid_occupancy`.  With
    ``emit_placeholders`` (the paper's kernel contract) the D2H transfer
    carries the padded ray count; otherwise only kept fragments.
    """
    if len(occupancy) != len(grid):
        raise ValueError("occupancy array does not match brick grid")
    if n_gpus < 1:
        raise ValueError("need at least one GPU")
    if fetches_per_sample < 1:
        raise ValueError("fetches_per_sample must be >= 1")
    works: list[MapWork] = []
    for b in grid:
        bw = model_brick_work(b, camera, dt, float(occupancy[b.id]), ert=ert)
        routed = _route_exact(bw.kept_fragments, b, camera, partitioner)
        works.append(
            MapWork(
                chunk_id=b.id,
                gpu=b.id % n_gpus,
                upload_bytes=bw.upload_bytes,
                n_rays=bw.n_rays,
                n_samples=bw.n_samples * fetches_per_sample,
                pairs_emitted=bw.n_rays if emit_placeholders else bw.kept_fragments,
                pairs_to_reducer=routed,
                read_from_disk=on_disk,
            )
        )
    return works


# -- the simulator's front end ------------------------------------------------
def _cluster(
    renderer: MapReduceVolumeRenderer, cluster: Optional[ClusterSpec]
) -> ClusterSpec:
    cluster = cluster or renderer.cluster_spec or accelerator_cluster(renderer.n_gpus)
    if cluster.gpu_count != renderer.n_gpus:
        raise ValueError(
            f"cluster has {cluster.gpu_count} GPUs, the renderer {renderer.n_gpus}"
        )
    return cluster


def simulate_sequence(
    renderer: MapReduceVolumeRenderer,
    cameras: Sequence[Camera],
    cluster: Optional[ClusterSpec] = None,
    job_config: Optional[JobConfig] = None,
    bricks_per_gpu: int = 2,
    out_of_core: bool = False,
    resident: bool = True,
) -> list[SimOutcome]:
    """Time ``renderer``'s scene on the simulated cluster, one outcome
    per camera.

    With ``resident=True`` and a grid that fits each GPU's VRAM
    (:func:`~repro.pipeline.outofcore.plan_residency`), only the first
    frame pays brick uploads — the paper's "obvious speed benefits" of
    the in-core regime.  Otherwise every frame streams its bricks.
    """
    if not cameras:
        raise ValueError("need at least one camera")
    cluster = _cluster(renderer, cluster)
    grid = renderer._grid(bricks_per_gpu)
    check_vram(grid, cluster)
    n_gpus = renderer.n_gpus
    partitioner = renderer._partitioner_factory(n_gpus)
    threshold = renderer.tf.opacity_threshold_value()
    if renderer.volume is not None:
        occupancy = grid_occupancy(grid, threshold, volume=renderer.volume)
    else:
        occupancy = grid_occupancy(grid, threshold, field=renderer.field)
    rc = renderer.render_config
    if resident and len(cameras) > 1:
        static = RayCastMapper(
            cameras[0], renderer.tf, renderer.volume_shape, rc
        ).static_device_bytes()
        resident = plan_residency(grid, cluster, static).in_core
    executor = SimClusterExecutor(cluster, job_config)
    outcomes = []
    for i, cam in enumerate(cameras):
        works = build_workload(
            grid,
            cam,
            rc.dt,
            occupancy,
            partitioner,
            n_gpus,
            emit_placeholders=True,
            on_disk=out_of_core,
            ert=rc.ert_alpha < 1.0,
            fetches_per_sample=rc.fetches_per_sample,
        )
        if resident and i > 0:
            works = strip_uploads(works)
        outcomes.append(executor.execute(works, pair_nbytes=FRAGMENT_NBYTES)[0])
    return outcomes


def simulate_frame(
    renderer: MapReduceVolumeRenderer,
    camera: Camera,
    cluster: Optional[ClusterSpec] = None,
    job_config: Optional[JobConfig] = None,
    bricks_per_gpu: int = 2,
    out_of_core: bool = False,
) -> SimOutcome:
    """Time one frame of ``renderer``'s scene on the simulated cluster
    from the analytic workload — no image, and no volume data beyond
    what the brick occupancy reads."""
    return simulate_sequence(
        renderer, [camera], cluster, job_config, bricks_per_gpu, out_of_core
    )[0]


def replay(
    renderer: MapReduceVolumeRenderer,
    result: RenderResult,
    cluster: Optional[ClusterSpec] = None,
    job_config: Optional[JobConfig] = None,
) -> SimOutcome:
    """Price a functional frame's measured per-chunk work
    (``result.works``) on the simulated cluster.  A brick larger than
    a GPU's VRAM is refused here too, by the scheduler."""
    cluster = _cluster(renderer, cluster)
    outcome, _ = SimClusterExecutor(cluster, job_config).execute(
        result.works, pair_nbytes=FRAGMENT_NBYTES
    )
    return outcome
