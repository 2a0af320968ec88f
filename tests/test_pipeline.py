"""End-to-end tests of the MapReduce volume renderer."""

import numpy as np
import pytest

from repro.core import Chunk, InProcessExecutor, JobConfig, TiledPartitioner
from repro.pipeline import MapReduceVolumeRenderer
from repro.pipeline.workload import replay, simulate_frame
from repro.render import (
    RenderConfig,
    default_tf,
    max_abs_diff,
    orbit_camera,
    render_reference,
    stitch_pixels,
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
        res = renderer(n_gpus).render(CAM, bricks_per_gpu=2)
        assert res.image is not None
        assert max_abs_diff(res.image, ref.image) < 1e-4, f"{n_gpus} GPUs"
        assert res.n_gpus == n_gpus
        assert res.n_bricks >= n_gpus


def test_exec_render_out_of_core_same_image():
    """Streaming bricks through loaders (the out-of-core path of
    ``examples/out_of_core.py``) changes nothing in the output."""
    r = renderer(2)
    ref = r.render(CAM)
    grid = r._grid(2)
    chunks = [
        Chunk(id=b.id, nbytes=b.nbytes, loader=lambda b=b: grid.extract(VOL, b),
              on_disk=True, meta=b)
        for b in grid
    ]
    result = InProcessExecutor().execute(r._spec(CAM), chunks, [c.id % 2 for c in chunks])
    parts = [(keys, values) for keys, values in result.outputs if len(keys)]
    assert np.array_equal(stitch_pixels(parts, CAM.width, CAM.height), ref.image)
    assert all(w.read_from_disk for w in result.works)


def test_replay_times_a_functional_frame():
    r = renderer(2)
    res = r.render(CAM)
    assert len(res.works) == res.n_bricks
    outcome = replay(r, res)
    assert outcome.total_runtime > 0
    sb = outcome.breakdown
    assert sb.total == pytest.approx(outcome.total_runtime, rel=1e-9)
    # The replay prices the pairs the functional frame kept.
    assert int(outcome.pairs_per_reducer.sum()) == res.stats.n_pairs_kept


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
    res = simulate_frame(r, orbit_camera((256,) * 3, width=512, height=512))
    assert res.total_runtime > 0
    assert res.breakdown.map > 0


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
        times[n] = simulate_frame(r, cam, bricks_per_gpu=2).total_runtime
    assert times[4] < times[1]


def test_renderer_requires_shape_or_volume():
    with pytest.raises(ValueError):
        MapReduceVolumeRenderer(volume=None)


def test_oversized_brick_rejected():
    """A stated VRAM refuses an oversized brick, functional or simulated;
    a bare GPU count states none, so only the simulator refuses."""
    spec = accelerator_cluster(1).with_gpu(vram_bytes=1024)
    r = MapReduceVolumeRenderer(volume=VOL, cluster=spec, render_config=CFG)
    with pytest.raises(MemoryError, match="exceeds GPU VRAM 1024 B"):
        r.render(CAM, bricks_per_gpu=1)
    with pytest.raises(MemoryError, match="exceeds GPU VRAM 1024 B"):
        r.submit_frame(CAM, bricks_per_gpu=1)
    with pytest.raises(MemoryError, match="exceeds GPU VRAM 1024 B"):
        simulate_frame(r, CAM, bricks_per_gpu=1)
    bare = MapReduceVolumeRenderer(volume=VOL, cluster=1, render_config=CFG)
    res = bare.render(CAM, bricks_per_gpu=1)
    with pytest.raises(MemoryError, match="exceeds GPU VRAM 1024 B"):
        simulate_frame(bare, CAM, spec, bricks_per_gpu=1)
    with pytest.raises(MemoryError, match="exceeds VRAM"):
        replay(bare, res, spec)


def test_custom_partitioner_same_image():
    """§6.1 pluggability: swapping the partitioner leaves the image intact."""
    ref = renderer(4).render(CAM)
    tiled = MapReduceVolumeRenderer(
        volume=VOL,
        cluster=4,
        tf=default_tf(),
        render_config=CFG,
        partitioner_factory=lambda n: TiledPartitioner(n, CAM.width, CAM.height, tile=16),
    ).render(CAM)
    assert max_abs_diff(tiled.image, ref.image) == 0.0


def test_job_config_flows_to_sim():
    cfg = JobConfig(reduce_on="gpu", sort_on="gpu")
    r = renderer(2)
    assert replay(r, r.render(CAM), job_config=cfg).sort_device == "gpu"
    assert simulate_frame(r, CAM, job_config=cfg).sort_device == "gpu"
    assert simulate_frame(r, CAM).sort_device == "cpu"


def test_simulated_cluster_must_match_the_renderer():
    r = renderer(2)
    with pytest.raises(ValueError, match="cluster has 4 GPUs"):
        simulate_frame(r, CAM, accelerator_cluster(4))
