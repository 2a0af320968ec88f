"""The paper's figures: one function per figure or table, and one
registry of the named results the repo pins.

Experiments return dict rows, simulated outcomes or a report string.
:data:`FIGURES` names each pinned result with the function and
arguments that produce it; :func:`figure` runs one and makes it
JSON-shaped, ``python -m repro figure NAME`` prints it,
``tests/test_paper_figures.py`` pins every entry value for value in
``tests/golden/paper_figures.json``, and ``tests/test_paper_claims.py``
checks the experiments' shape against the paper at paper scale.

All figure-scale experiments run on the simulated cluster from the
analytic workload (:func:`~repro.pipeline.workload.simulate_frame`).
``exec_vs_sim_validation`` and ``replayed_frame`` cross-check that
against a functional render on a small volume.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

from ..baselines.binary_swap import binary_swap_time
from ..baselines.cpu_cluster import PARAVIEW_REPORTED_VPS, run_cpu_cluster_baseline
from ..core.job import JobConfig
from ..core.partition import (
    BlockPartitioner,
    RoundRobinPartitioner,
    TiledPartitioner,
)
from ..perfmodel.bottleneck import compute_vs_communication
from ..perfmodel.efficiency import ScalingPoint, scaling_series
from ..pipeline.driver import orbit_path
from ..pipeline.renderer import MapReduceVolumeRenderer
from ..pipeline.workload import (
    build_workload,
    replay,
    simulate_frame,
    simulate_sequence,
)
from ..render.camera import orbit_camera
from ..render.fragments import FRAGMENT_NBYTES
from ..render.raycast import RenderConfig
from ..render.transfer import TransferFunction1D, default_tf
from ..volume.bricking import bricks_for_gpu_count
from ..volume.datasets import DATASET_FIELDS, make_dataset
from ..volume.occupancy import grid_occupancy
from .disk import DiskSpec
from .pcie import PCIeSpec
from .presets import accelerator_cluster
from .scheduler import SimOutcome

__all__ = [
    "FIGURES",
    "GPU_COUNTS",
    "PAPER_SIZES",
    "figure",
    "figure_camera",
    "plain",
    "sim_render",
    "fig3_breakdown",
    "fig4_scaling",
    "sec63_bottleneck",
    "paraview_reference",
    "micro_transfer_costs",
    "ablation_partitioners",
    "ablation_compositing",
    "ablation_sort_device",
    "ablation_reduce_device",
    "ablation_future_work",
    "ablation_combiner",
    "exec_vs_sim_validation",
    "orbit_sequence",
    "orbit_frame_runtimes",
    "rotation_report",
    "replayed_frame",
]

GPU_COUNTS = (1, 2, 4, 8, 16, 32)
PAPER_SIZES = (128, 256, 512, 1024)
IMAGE = 512
DT = 1.0


def figure_camera(volume_shape: Sequence[int], image: int = IMAGE):
    """The evaluation view: the volume roughly fills a 512² image."""
    return orbit_camera(
        tuple(volume_shape),
        azimuth_deg=30,
        elevation_deg=20,
        distance_factor=2.2,
        width=image,
        height=image,
    )


def _renderer(
    size: Sequence[int] | int,
    n_gpus: int,
    dataset: str = "skull",
    tf: Optional[TransferFunction1D] = None,
    partitioner_factory=None,
) -> MapReduceVolumeRenderer:
    shape = (size,) * 3 if isinstance(size, int) else tuple(size)
    return MapReduceVolumeRenderer(
        volume=None,
        volume_shape=shape,
        field=DATASET_FIELDS[dataset],
        cluster=n_gpus,
        tf=tf or default_tf(),
        render_config=RenderConfig(dt=DT),
        partitioner_factory=partitioner_factory,
    )


def sim_render(
    size,
    n_gpus: int,
    dataset: str = "skull",
    bricks_per_gpu: int = 2,
    image: int = IMAGE,
    job_config: JobConfig = JobConfig(),
    partitioner_factory=None,
) -> SimOutcome:
    """One simulated frame at the evaluation view."""
    r = _renderer(size, n_gpus, dataset, partitioner_factory=partitioner_factory)
    cam = figure_camera(r.volume_shape, image)
    return simulate_frame(
        r, cam, job_config=job_config, bricks_per_gpu=bricks_per_gpu
    )


def _skip(size, n_gpus: int) -> bool:
    """1024³ cannot run on one 4 GB GPU (matches the paper's missing bar)."""
    edge = size if isinstance(size, int) else max(size)
    return edge >= 1024 and n_gpus == 1


# -- FIG3: stage breakdown ------------------------------------------------------
def fig3_breakdown(
    dataset: str = "skull",
    sizes: Sequence[int] = PAPER_SIZES,
    gpu_counts: Sequence[int] = GPU_COUNTS,
) -> list[dict]:
    """Fig. 3: per-stage runtimes for each volume size and GPU count."""
    rows = []
    for size in sizes:
        for n in gpu_counts:
            if _skip(size, n):
                continue
            res = sim_render(size, n, dataset)
            sb = res.breakdown
            rows.append(
                {
                    "volume": f"{size}^3",
                    "n_gpus": n,
                    "map_s": sb.map,
                    "partition_io_s": sb.partition_io,
                    "sort_s": sb.sort,
                    "reduce_s": sb.reduce,
                    "total_s": sb.total,
                }
            )
    return rows


# -- FIG4: FPS and VPS ----------------------------------------------------------
def fig4_scaling(
    dataset: str = "skull",
    sizes: Sequence[int] = PAPER_SIZES,
    gpu_counts: Sequence[int] = GPU_COUNTS,
) -> list[dict]:
    """Fig. 4: framerate and voxels/second per volume size and GPU count."""
    rows = []
    for size in sizes:
        points = []
        for n in gpu_counts:
            if _skip(size, n):
                continue
            res = sim_render(size, n, dataset)
            points.append(ScalingPoint(n, res.total_runtime, size**3))
        for s in scaling_series(points):
            rows.append(
                {
                    "volume": f"{size}^3",
                    "n_gpus": s["n_gpus"],
                    "fps": s["fps"],
                    "mvps": s["mvps"],
                    "speedup": s["speedup"],
                    "efficiency": s["efficiency"],
                }
            )
    return rows


# -- SEC63: bottleneck numbers -------------------------------------------------
def sec63_bottleneck(dataset: str = "skull", size: int = 1024) -> list[dict]:
    """§6.3: communication vs computation for 1024³ at 8 and 16 GPUs."""
    rows = []
    tf = default_tf()
    for n in (2, 4, 8, 16, 32):
        shape = (size,) * 3
        cam = figure_camera(shape)
        grid = bricks_for_gpu_count(shape, n, 2)
        occ = grid_occupancy(
            grid, tf.opacity_threshold_value(), field=DATASET_FIELDS[dataset]
        )
        works = build_workload(grid, cam, DT, occ, RoundRobinPartitioner(n), n)
        split = compute_vs_communication(accelerator_cluster(n), works, FRAGMENT_NBYTES)
        rows.append(
            {
                "n_gpus": n,
                "compute_s": split.compute_seconds,
                "communication_s": split.communication_seconds,
                "comm_over_compute": split.ratio,
                "compute_bound": split.compute_bound,
            }
        )
    return rows


# -- REF: ParaView footnote ----------------------------------------------------
def paraview_reference(dataset: str = "skull", size: int = 1024) -> list[dict]:
    """Footnote 1: our VPS at 16 GPUs vs ParaView's 346M at 512 procs."""
    res = sim_render(size, 16, dataset)
    ours = size**3 / res.total_runtime
    base = run_cpu_cluster_baseline((size,) * 3, n_procs=512)
    return [
        {
            "system": "MapReduce renderer (16 GPUs)",
            "mvps": ours / 1e6,
            "vs_paraview": ours / PARAVIEW_REPORTED_VPS,
        },
        {
            "system": "ParaView model (512 procs)",
            "mvps": base.vps / 1e6,
            "vs_paraview": base.vps / PARAVIEW_REPORTED_VPS,
        },
        {
            "system": "ParaView reported (512 procs)",
            "mvps": PARAVIEW_REPORTED_VPS / 1e6,
            "vs_paraview": 1.0,
        },
    ]


# -- TAB-DISK: §3 micro-costs -------------------------------------------------
def micro_transfer_costs() -> list[dict]:
    """The paper's stated micro-costs vs our calibrated models."""
    brick = 64**3 * 4
    frag_image = IMAGE * IMAGE * FRAGMENT_NBYTES
    disk, pcie = DiskSpec(), PCIeSpec()
    return [
        {
            "operation": "disk read 64^3 brick",
            "paper_claim_ms": 20.0,
            "model_ms": disk.read_time(brick) * 1e3,
        },
        {
            "operation": "PCIe H2D 64^3 brick",
            "paper_claim_ms": 0.2,
            "model_ms": pcie.h2d_time(brick) * 1e3,
        },
        {
            "operation": "D2H 512^2 fragments",
            "paper_claim_ms": 2.0,
            "model_ms": pcie.d2h_time(frag_image) * 1e3,
        },
    ]


# -- ABL-PART: partition strategies --------------------------------------------
def ablation_partitioners(
    dataset: str = "skull", size: int = 256, n_gpus: int = 8
) -> list[dict]:
    """§3.1.1: per-pixel round-robin vs striped vs tiled distribution."""
    cam = figure_camera((size,) * 3)
    factories = {
        "round-robin (paper)": RoundRobinPartitioner,
        "striped/block": lambda n: BlockPartitioner(n, cam.pixel_count),
        "tiled 32px": lambda n: TiledPartitioner(n, cam.width, cam.height, 32),
    }
    rows = []
    for name, factory in factories.items():
        res = sim_render(size, n_gpus, dataset, partitioner_factory=factory)
        per_reducer = res.pairs_per_reducer
        imb = float(per_reducer.max() / max(per_reducer.mean(), 1e-12))
        rows.append(
            {
                "partitioner": name,
                "total_s": res.total_runtime,
                "reduce_s": res.breakdown.reduce,
                "load_imbalance": imb,
            }
        )
    return rows


# -- ABL-COMP: direct-send vs binary swap ---------------------------------------
def ablation_compositing(
    dataset: str = "skull",
    sizes: Sequence[int] = (256, 512),
    gpu_counts: Sequence[int] = (4, 8, 16, 32),
) -> list[dict]:
    """§6: direct-send (pipeline) vs binary-swap compositing cost."""
    rows = []
    for size in sizes:
        for n in gpu_counts:
            res = sim_render(size, n, dataset)
            sb = res.breakdown
            direct = sb.partition_io + sb.sort + sb.reduce
            # Every GPU is a compositing participant; swap partners that
            # share a node still pay the host staging/compositing costs.
            swap = binary_swap_time(n, IMAGE * IMAGE, accelerator_cluster(n).network)
            rows.append(
                {
                    "volume": f"{size}^3",
                    "n_gpus": n,
                    "direct_send_s": direct,
                    "binary_swap_s": swap.total,
                    "direct_wins": direct < swap.total,
                }
            )
    return rows


# -- ABL-SORT / ABL-REDUCE: device choices -------------------------------------
def ablation_sort_device(
    dataset: str = "skull", size: int = 512, n_gpus: int = 8
) -> list[dict]:
    """§3.1.2: CPU vs GPU counting sort across fragment loads."""
    rows = []
    for device in ("cpu", "gpu"):
        for image in (256, 512, 1024):
            res = sim_render(
                size,
                n_gpus,
                dataset,
                image=image,
                job_config=JobConfig(sort_on=device),
            )
            rows.append(
                {
                    "sort_on": device,
                    "image": f"{image}^2",
                    "pairs": int(res.pairs_per_reducer.sum()),
                    "sort_s": res.breakdown.sort,
                    "total_s": res.total_runtime,
                }
            )
    return rows


def ablation_reduce_device(
    dataset: str = "skull", size: int = 512, n_gpus: int = 8
) -> list[dict]:
    """§3.1.2: the paper found CPU compositing faster — check both."""
    rows = []
    for device in ("cpu", "gpu"):
        res = sim_render(
            size, n_gpus, dataset, job_config=JobConfig(reduce_on=device)
        )
        rows.append(
            {
                "reduce_on": device,
                "reduce_s": res.breakdown.reduce,
                "total_s": res.total_runtime,
            }
        )
    return rows


# -- ABL-FUTURE: the paper's §7 proposals ---------------------------------------
def ablation_future_work(
    dataset: str = "skull", gpu_counts: Sequence[int] = (8,)
) -> list[dict]:
    """§7: async uploads + manual filtering, and 0-copy fragment memory.

    The paper leaves both as open questions; the simulator prices them.
    Async upload trades the synchronous texture-setup stall for a slower
    manually-filtered kernel — it should win when uploads dominate
    (small volumes, many chunks) and lose when kernels dominate (large
    volumes).  0-copy removes the D2H step but pays slow host-mapped
    writes per emitted pair.
    """
    rows = []
    modes = {
        "baseline (sync texture)": JobConfig(),
        "async upload + manual filter": JobConfig(async_upload=True),
        "zero-copy fragments": JobConfig(zero_copy_fragments=True),
    }
    for size in (64, 1024):
        for n in gpu_counts:
            for name, cfg in modes.items():
                res = sim_render(size, n, dataset, job_config=cfg)
                rows.append(
                    {
                        "volume": f"{size}^3",
                        "n_gpus": n,
                        "mode": name,
                        "map_s": res.breakdown.map,
                        "total_s": res.total_runtime,
                    }
                )
    return rows


# -- ABL-COMBINE: why the paper omitted the combiner -----------------------------
def ablation_combiner(size: int = 32, n_gpus: int = 4) -> list[dict]:
    """§3.1: "we specifically omitted partial reduce/combine because it
    didn't increase performance for our volume renderer."  Measure how
    many pairs a per-chunk combiner could actually merge: within one
    brick each pixel emits at most one fragment, so the answer is zero.
    """
    from ..pipeline.combiner import FragmentCombiner

    vol = make_dataset("supernova", (size,) * 3)
    cam = figure_camera(vol.shape, image=128)
    cfg = RenderConfig(dt=DT, ert_alpha=1.0)
    rows = []
    for use_combiner in (False, True):
        renderer = MapReduceVolumeRenderer(
            volume=vol, cluster=n_gpus, tf=default_tf(), render_config=cfg
        )
        spec = renderer._spec(cam)
        if use_combiner:
            spec.combiner = FragmentCombiner()
        from ..core.executors import InProcessExecutor

        _, chunks = renderer._in_core_chunks(None, 2)
        res = InProcessExecutor().execute(spec, chunks, [c.id % n_gpus for c in chunks])
        merged = 0
        if use_combiner:
            merged = spec.combiner.pairs_in - spec.combiner.pairs_out
        rows.append(
            {
                "combiner": use_combiner,
                "pairs_shuffled": int(res.stats.n_pairs_kept),
                "pairs_merged_by_combiner": merged,
            }
        )
    return rows


# -- exec vs sim cross-validation -----------------------------------------------
def exec_vs_sim_validation(size: int = 32, n_gpus: int = 4) -> dict:
    """Functional and analytic paths agree on traffic within a factor.

    Runs a small volume both ways and compares total kept fragments —
    the quantity every communication cost depends on.
    """
    vol = make_dataset("supernova", (size,) * 3)
    cam = figure_camera(vol.shape, image=128)
    cfg = RenderConfig(dt=DT, ert_alpha=1.0)
    renderer = MapReduceVolumeRenderer(
        volume=vol, cluster=n_gpus, tf=default_tf(), render_config=cfg
    )
    exec_res = renderer.render(cam)
    sim_res = simulate_frame(renderer, cam)
    exec_frags = int(exec_res.stats.n_pairs_kept)
    sim_frags = int(sim_res.pairs_per_reducer.sum())
    return {
        "exec_fragments": exec_frags,
        "sim_fragments": sim_frags,
        "ratio": sim_frags / max(exec_frags, 1),
        "exec_runtime_s": replay(renderer, exec_res).total_runtime,
        "sim_runtime_s": sim_res.total_runtime,
    }


# -- ROTATE: a simulated interactive orbit --------------------------------------
def orbit_sequence(
    dataset: str = "skull",
    size: int = 128,
    n_gpus: int = 4,
    frames: int = 3,
    image: int = 256,
    resident: bool = True,
) -> list[SimOutcome]:
    """A simulated orbit, bricks kept resident across frames or
    streamed in every frame."""
    r = _renderer(size, n_gpus, dataset)
    cams = orbit_path(r.volume_shape, frames, width=image, height=image)
    return simulate_sequence(r, cams, resident=resident)


def orbit_frame_runtimes(**orbit) -> list[float]:
    """Each frame's simulated runtime (seconds) of :func:`orbit_sequence`."""
    return [o.total_runtime for o in orbit_sequence(**orbit)]


def rotation_report(
    dataset: str = "skull",
    size: int = 128,
    n_gpus: int = 4,
    frames: int = 3,
    image: int = 256,
    resident: bool = True,
) -> str:
    """An orbit's first and steady frame time, and its steady FPS."""
    times = orbit_frame_runtimes(
        dataset=dataset, size=size, n_gpus=n_gpus, frames=frames,
        image=image, resident=resident,
    )
    steady = times[1:] or times
    return (
        f"{dataset} {size}^3 on {n_gpus} simulated GPUs, {frames}-frame orbit "
        f"({'resident' if resident else 'streaming'} bricks):\n"
        f"  first frame : {times[0] * 1e3:8.1f} ms\n"
        f"  steady frame: {sum(steady) / len(steady) * 1e3:8.1f} ms "
        f"({len(steady) / sum(steady):.2f} FPS)\n"
    )


# -- REPLAY: a functional frame priced on the simulated cluster ------------------
def replayed_frame() -> SimOutcome:
    """The work a small functional render measured, replayed on the
    simulated cluster."""
    vol = make_dataset("supernova", (24, 24, 24))
    cam = orbit_camera(vol.shape, azimuth_deg=40, elevation_deg=25, width=48, height=48)
    r = MapReduceVolumeRenderer(
        volume=vol, cluster=2, tf=default_tf(),
        render_config=RenderConfig(dt=0.8, ert_alpha=1.0),
    )
    return replay(r, r.render(cam))


# -- output ---------------------------------------------------------------------
def plain(obj):
    """JSON-shaped copy of ``obj``: dataclasses and NumPy values become
    dicts, lists and Python scalars."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


# -- the registry ---------------------------------------------------------------
_SMALL_GRID = {"sizes": (64, 128), "gpu_counts": (1, 2, 4, 8)}

#: Every pinned result, keyed as in ``tests/golden/paper_figures.json``:
#: the experiment and the keyword arguments it runs with.  The §6.3,
#: footnote-1 and §3 tables and the ablations run at their paper-scale
#: defaults.
FIGURES: dict[str, tuple[Callable, dict]] = {
    "fig3_breakdown_small": (fig3_breakdown, _SMALL_GRID),
    "fig4_scaling_small": (fig4_scaling, _SMALL_GRID),
    "exec_vs_sim": (exec_vs_sim_validation, {}),
    "sec63_bottleneck": (sec63_bottleneck, {}),
    "paraview_reference": (paraview_reference, {}),
    "micro_transfer_costs": (micro_transfer_costs, {}),
    "ablation_partitioners": (ablation_partitioners, {}),
    "ablation_compositing": (ablation_compositing, {}),
    "ablation_sort_device": (ablation_sort_device, {}),
    "ablation_reduce_device": (ablation_reduce_device, {}),
    "ablation_future_work": (ablation_future_work, {}),
    "ablation_combiner": (ablation_combiner, {}),
    "sequence_resident": (orbit_sequence, {"frames": 3}),
    "sequence_streaming": (orbit_sequence, {"frames": 3, "resident": False}),
    "rotation_frame_runtimes": (
        orbit_frame_runtimes, {"frames": 4, "resident": False}
    ),
    "replayed_frame": (replayed_frame, {}),
    "rotate_cli_resident": (
        rotation_report, {"size": 128, "n_gpus": 4, "frames": 4, "image": 256}
    ),
    "rotate_cli_streaming": (
        rotation_report,
        {"size": 64, "n_gpus": 2, "frames": 3, "image": 128, "resident": False},
    ),
}


def figure(name: str):
    """The named figure's value, made JSON-shaped by :func:`plain`."""
    fn, kwargs = FIGURES[name]
    return plain(fn(**kwargs))
