"""End-to-end tests of the MapReduce volume renderer."""

import numpy as np
import pytest

from repro.core import JobConfig, TiledPartitioner
from repro.pipeline import MapReduceVolumeRenderer
from repro.render import (
    RenderConfig,
    default_tf,
    max_abs_diff,
    orbit_camera,
    render_reference,
)
from repro.sim import accelerator_cluster
from repro.volume import make_dataset

VOL = make_dataset("supernova", (24, 24, 24))
CAM = orbit_camera(VOL.shape, azimuth_deg=40, elevation_deg=25, width=48, height=48)
CFG = RenderConfig(dt=0.8, ert_alpha=1.0)


def renderer(n_gpus=2, **kw):
    return MapReduceVolumeRenderer(
        volume=VOL, cluster=n_gpus, tf=default_tf(), render_config=CFG, **kw
    )


def test_exec_render_matches_reference():
    """The full MapReduce pipeline reproduces the single-pass image."""
    ref = render_reference(VOL, CAM, default_tf(), CFG)
    for n_gpus in (1, 2, 4):
        res = renderer(n_gpus).render(CAM, mode="exec", bricks_per_gpu=2)
        assert res.image is not None
        assert max_abs_diff(res.image, ref.image) < 1e-4, f"{n_gpus} GPUs"
        assert res.n_gpus == n_gpus
        assert res.n_bricks >= n_gpus


def test_exec_render_out_of_core_same_image():
    """Streaming bricks through loaders changes nothing in the output."""
    ref = renderer(2).render(CAM, mode="exec")
    ooc = renderer(2).render(CAM, mode="exec", out_of_core=True)
    assert max_abs_diff(ooc.image, ref.image) == 0.0


def test_exec_render_procedural_field_out_of_core():
    """A renderer with only a field (no in-core volume) still renders."""
    from repro.volume.datasets import supernova_field

    r = MapReduceVolumeRenderer(
        volume=None,
        volume_shape=VOL.shape,
        field=supernova_field,
        cluster=2,
        tf=default_tf(),
        render_config=CFG,
    )
    with pytest.raises(ValueError):
        r.render(CAM, mode="exec")  # in-core render without volume
    res = r.render(CAM, mode="exec", out_of_core=True)
    ref = renderer(2).render(CAM, mode="exec")
    assert max_abs_diff(res.image, ref.image) < 1e-4


def test_both_mode_attaches_timing():
    res = renderer(2).render(CAM, mode="both")
    assert res.image is not None
    assert res.outcome is not None
    assert res.runtime > 0
    sb = res.outcome.breakdown
    assert sb.total == pytest.approx(res.runtime, rel=1e-9)
    assert res.stats.breakdown is sb


def test_sim_mode_runs_without_volume_data():
    from repro.volume.datasets import skull_field

    r = MapReduceVolumeRenderer(
        volume=None,
        volume_shape=(256, 256, 256),
        field=skull_field,
        cluster=8,
        tf=default_tf(),
        render_config=RenderConfig(dt=0.5),
    )
    res = r.render(orbit_camera((256,) * 3, width=512, height=512), mode="sim")
    assert res.image is None
    assert res.outcome.total_runtime > 0
    assert res.outcome.breakdown.map > 0


def test_sim_runtime_decreases_with_gpus_for_large_volume():
    from repro.volume.datasets import supernova_field

    times = {}
    for n in (1, 4):
        r = MapReduceVolumeRenderer(
            volume=None,
            volume_shape=(256, 256, 256),
            field=supernova_field,
            cluster=n,
            tf=default_tf(),
        )
        cam = orbit_camera((256,) * 3, width=512, height=512)
        times[n] = r.render(cam, mode="sim", bricks_per_gpu=2).runtime
    assert times[4] < times[1]


def test_render_mode_validation():
    with pytest.raises(ValueError):
        renderer().render(CAM, mode="warp")


def test_renderer_requires_shape_or_volume():
    with pytest.raises(ValueError):
        MapReduceVolumeRenderer(volume=None)


def test_oversized_brick_rejected():
    spec = accelerator_cluster(1).with_gpu(vram_bytes=1024)
    r = MapReduceVolumeRenderer(volume=VOL, cluster=spec, render_config=CFG)
    for mode in ("exec", "sim"):
        with pytest.raises(MemoryError, match="exceeds GPU VRAM 1024 B"):
            r.render(CAM, mode=mode, bricks_per_gpu=1)
    with pytest.raises(MemoryError, match="exceeds GPU VRAM 1024 B"):
        r.submit_frame(CAM, bricks_per_gpu=1)


def test_custom_partitioner_same_image():
    """§6.1 pluggability: swapping the partitioner leaves the image intact."""
    ref = renderer(4).render(CAM, mode="exec")
    tiled = MapReduceVolumeRenderer(
        volume=VOL,
        cluster=4,
        tf=default_tf(),
        render_config=CFG,
        partitioner_factory=lambda n: TiledPartitioner(n, CAM.width, CAM.height, tile=16),
    ).render(CAM, mode="exec")
    assert max_abs_diff(tiled.image, ref.image) == 0.0


def test_job_config_flows_to_sim():
    cfg = JobConfig(reduce_on="gpu", sort_on="gpu")
    res = MapReduceVolumeRenderer(
        volume=VOL, cluster=2, tf=default_tf(), render_config=CFG, job_config=cfg
    ).render(CAM, mode="both")
    assert res.outcome.sort_device == "gpu"
