"""Edge-case and robustness tests across the stack."""

import numpy as np
import pytest

from repro.core import JobConfig
from repro.pipeline import MapReduceVolumeRenderer
from repro.render import (
    Camera,
    PixelRect,
    RenderConfig,
    default_tf,
    grayscale_tf,
    orbit_camera,
    raycast_brick,
    render_reference,
)
from repro.sim import Environment, SimulationError
from repro.volume import BrickGrid, Volume, make_dataset


# -- degenerate sizes -------------------------------------------------------
def test_one_voxel_volume_renders():
    v = Volume(np.full((1, 1, 1), 0.9, np.float32))
    cam = orbit_camera(v.shape, width=8, height=8)
    ref = render_reference(v, cam, grayscale_tf(), RenderConfig(dt=0.25))
    assert ref.image.shape == (8, 8, 4)
    assert ref.image[..., 3].max() > 0  # the voxel is visible


def test_one_pixel_image():
    v = make_dataset("supernova", (8, 8, 8))
    cam = orbit_camera(v.shape, width=1, height=1)
    ref = render_reference(v, cam, default_tf(), RenderConfig(dt=0.5))
    assert ref.image.shape == (1, 1, 4)


def test_single_brick_equals_whole_volume():
    v = make_dataset("skull", (12, 12, 12))
    cam = orbit_camera(v.shape, width=24, height=24)
    cfg = RenderConfig(dt=0.8, ert_alpha=1.0)
    grid = BrickGrid(v.shape, 12, ghost=1)  # exactly one brick
    assert len(grid) == 1
    b = grid.brick(0)
    frags, _ = raycast_brick(
        grid.extract(v, b), b.data_lo, b.lo, b.hi, v.shape, cam, default_tf(), cfg
    )
    ref = render_reference(v, cam, default_tf(), cfg)
    assert len(frags) == len(ref.fragments)


def test_anisotropic_1d_sliver_volume():
    v = Volume(np.random.default_rng(0).uniform(0, 1, (2, 2, 32)).astype(np.float32))
    cam = orbit_camera(v.shape, width=16, height=16)
    ref = render_reference(v, cam, grayscale_tf(), RenderConfig(dt=0.5, ert_alpha=1.0))
    from tests.test_raycast import render_bricked

    grid = BrickGrid(v.shape, (2, 2, 8), ghost=1)
    img, _, _ = render_bricked(v, grid, cam, grayscale_tf(), RenderConfig(dt=0.5, ert_alpha=1.0))
    assert np.abs(img - ref.image).max() < 1e-4


def test_camera_exactly_on_axis():
    """Axis-aligned view: ray components hit the parallel-slab path."""
    v = make_dataset("supernova", (16, 16, 16))
    cam = Camera(eye=(8.0, 8.0, -60.0), center=(8.0, 8.0, 8.0), up=(0, 1, 0), width=16, height=16)
    ref = render_reference(v, cam, default_tf(), RenderConfig(dt=0.5))
    assert ref.stats.n_active_rays > 0


def test_explicit_rect_parameter():
    """Callers may restrict the kernel to a given pixel rect."""
    v = make_dataset("supernova", (16, 16, 16))
    cam = orbit_camera(v.shape, width=32, height=32)
    rect = PixelRect(0, 0, 16, 32)
    frags, stats = raycast_brick(
        v.data, (0, 0, 0), (0, 0, 0), v.shape, v.shape, cam, default_tf(),
        RenderConfig(dt=0.5), rect=rect,
    )
    assert stats.n_rays == rect.area
    if len(frags):
        xs = frags["pixel"] % cam.width
        assert xs.max() < 16


# -- engine edge cases -----------------------------------------------------
def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_environment_initial_time():
    env = Environment(initial_time=5.0)
    fired = []

    def w():
        yield env.timeout(1.0)
        fired.append(env.now)

    env.process(w())
    env.run()
    assert fired == [6.0]


def test_run_until_without_events_advances_clock():
    env = Environment()
    env.run(until=3.0)
    assert env.now == 3.0


# -- pipeline edge cases ------------------------------------------------------
def test_render_sim_single_gpu_single_brick():
    from repro.pipeline.workload import simulate_frame
    from repro.volume.datasets import skull_field

    r = MapReduceVolumeRenderer(
        volume=None,
        volume_shape=(64, 64, 64),
        field=skull_field,
        cluster=1,
        tf=default_tf(),
        render_config=RenderConfig(dt=1.0),
    )
    cam = orbit_camera((64,) * 3, width=64, height=64)
    res = simulate_frame(r, cam, bricks_per_gpu=1)
    assert len(res.pairs_per_reducer) == 1
    assert res.total_runtime > 0


def test_offscreen_volume_renders_empty():
    """A camera looking away sees nothing; the pipeline must not choke."""
    v = make_dataset("supernova", (12, 12, 12))
    cam = Camera(eye=(6.0, -40.0, 6.0), center=(6.0, -80.0, 6.0), up=(0, 0, 1), width=16, height=16)
    res = MapReduceVolumeRenderer(
        volume=v, cluster=2, tf=default_tf(), render_config=RenderConfig(dt=0.5)
    ).render(cam)
    assert np.all(res.image == 0)


def test_job_config_validation():
    with pytest.raises(ValueError):
        JobConfig(send_threshold_pairs=0)
    with pytest.raises(ValueError):
        JobConfig(sort_on="tpu")
    with pytest.raises(ValueError):
        JobConfig(reduce_on="fpga")
    with pytest.raises(ValueError):
        JobConfig(reduce_threads=0)
    assert JobConfig(sort_on="cpu").sort_device(10**9) == "cpu"
    assert JobConfig(sort_on="gpu").sort_device(1) == "gpu"
