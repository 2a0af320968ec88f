"""Tests for the sort-last (swap-compositing) rendering mode (§6.1)."""

import numpy as np
import pytest

from repro.pipeline import MapReduceVolumeRenderer
from repro.pipeline.swap import LocalPartitioner, render_swap, slab_assignment
from repro.render import (
    Camera,
    RenderConfig,
    default_tf,
    max_abs_diff,
    orbit_camera,
    render_reference,
)
from repro.volume import BrickGrid, make_dataset

VOL = make_dataset("supernova", (24, 24, 24))
TF = default_tf()
CFG = RenderConfig(dt=0.8, ert_alpha=1.0)


def test_local_partitioner_pins_everything():
    p = LocalPartitioner(4, owner=2)
    dests = p.partition(np.arange(100))
    assert np.all(dests == 2)
    with pytest.raises(ValueError):
        LocalPartitioner(4, owner=4)


def test_slab_assignment_covers_all_bricks_once():
    grid = BrickGrid(VOL.shape, 6, ghost=1)  # 4x4x4 bricks
    cam = orbit_camera(VOL.shape, azimuth_deg=10, elevation_deg=5, width=32, height=32)
    slabs, axis = slab_assignment(grid, cam, 4)
    assert 0 <= axis < 3
    all_ids = sorted(i for slab in slabs for i in slab)
    assert all_ids == list(range(len(grid)))
    # Slabs are contiguous along the axis, in depth order.
    eye = np.asarray(cam.eye)
    prev = None
    for slab in slabs:
        coords = [grid.brick(i).index[axis] for i in slab]
        dists = [abs(c - eye[axis] / grid.brick_size[axis]) for c in coords]
        if prev is not None and dists:
            assert min(dists) >= prev - 1e-9
        if dists:
            prev = max(dists)


def test_slab_assignment_rejects_eye_inside_axis_extent():
    grid = BrickGrid(VOL.shape, 12, ghost=1)
    # Eye inside the volume footprint along every axis.
    cam = Camera(eye=(12.0, 12.0, 12.5), center=(12.0, 12.0, 0.0), up=(0, 1, 0), width=16, height=16)
    with pytest.raises(ValueError, match="inside the volume"):
        slab_assignment(grid, cam, 2)


def test_slab_assignment_validation():
    grid = BrickGrid(VOL.shape, 12, ghost=1)
    cam = orbit_camera(VOL.shape, width=16, height=16)
    with pytest.raises(ValueError):
        slab_assignment(grid, cam, 0)


@pytest.mark.parametrize("az,el", [(15, 10), (100, 30), (250, -20)])
def test_swap_render_equals_reference(az, el):
    """Sort-last local compositing + swap merge == single-pass image."""
    cam = orbit_camera(VOL.shape, azimuth_deg=az, elevation_deg=el, width=48, height=48)
    ref = render_reference(VOL, cam, TF, CFG)
    swap = render_swap(VOL, cam, TF, n_gpus=3, config=CFG, grid=BrickGrid(VOL.shape, 6, ghost=1))
    assert max_abs_diff(swap.image, ref.image) < 1e-4


def test_swap_render_equals_direct_send_pipeline():
    """§6.1: the two compositing schemes produce the same image."""
    cam = orbit_camera(VOL.shape, azimuth_deg=40, elevation_deg=25, width=48, height=48)
    direct = MapReduceVolumeRenderer(
        volume=VOL, cluster=4, tf=TF, render_config=CFG
    ).render(cam, grid=BrickGrid(VOL.shape, 6, ghost=1))
    swap = render_swap(VOL, cam, TF, n_gpus=4, config=CFG, grid=BrickGrid(VOL.shape, 6, ghost=1))
    assert max_abs_diff(swap.image, direct.image) < 1e-4


def test_swap_more_gpus_than_slices_still_works():
    cam = orbit_camera(VOL.shape, width=32, height=32)
    grid = BrickGrid(VOL.shape, 12, ghost=1)  # 2 slices per axis
    swap = render_swap(VOL, cam, TF, n_gpus=5, config=CFG, grid=grid)
    ref = render_reference(VOL, cam, TF, CFG)
    assert max_abs_diff(swap.image, ref.image) < 1e-4


def test_swap_fragment_accounting():
    cam = orbit_camera(VOL.shape, width=32, height=32)
    swap = render_swap(VOL, cam, TF, n_gpus=2, config=CFG)
    assert len(swap.partial_images) == 2
    assert sum(swap.fragments_per_gpu) > 0
    for img in swap.partial_images:
        assert img.shape == (32, 32, 4)
