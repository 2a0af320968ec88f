"""Tests for residency planning and interactive frame sequences."""

import numpy as np
import pytest

from repro.core import MapWork
from repro.pipeline import MapReduceVolumeRenderer
from repro.pipeline.outofcore import plan_residency, strip_uploads
from repro.pipeline.workload import simulate_sequence
from repro.render import RenderConfig, default_tf
from repro.pipeline import orbit_path
from repro.sim import accelerator_cluster
from repro.volume import BrickGrid
from repro.volume.datasets import skull_field

GiB = 1024**3


def test_plan_residency_in_core():
    grid = BrickGrid((64, 64, 64), 32, ghost=1)  # ~9 MB of bricks
    plan = plan_residency(grid, accelerator_cluster(2))
    assert plan.in_core
    assert sum(plan.per_gpu_bytes) == sum(b.nbytes for b in grid)
    assert 0 < max(plan.per_gpu_bytes) < 0.01 * min(plan.vram_bytes)
    assert plan.vram_bytes[0] - plan.per_gpu_bytes[0] > 3 * GiB


def test_plan_residency_out_of_core():
    # A 1024^3 brick set (~4.3 GiB with ghosts) on one 4 GiB GPU.
    grid = BrickGrid((1024, 1024, 1024), 512, ghost=1)
    plan = plan_residency(grid, accelerator_cluster(1))
    assert not plan.in_core
    assert plan.per_gpu_bytes[0] > plan.vram_bytes[0]


def test_plan_residency_custom_assignment_validation():
    grid = BrickGrid((32, 32, 32), 16, ghost=1)
    with pytest.raises(ValueError):
        plan_residency(grid, accelerator_cluster(1), assignment=lambda i: 5)


def test_plan_residency_static_bytes_counted():
    grid = BrickGrid((64, 64, 64), 32, ghost=1)
    spec = accelerator_cluster(1).with_gpu(vram_bytes=sum(b.nbytes for b in grid))
    assert plan_residency(grid, spec, static_bytes=0).in_core
    assert not plan_residency(grid, spec, static_bytes=1024).in_core


def test_strip_uploads():
    w = MapWork(0, 0, 1 << 20, 10, 10, 10, np.array([10], np.int64), read_from_disk=True)
    (s,) = strip_uploads([w])
    assert s.upload_bytes == 0 and not s.read_from_disk
    assert s.n_samples == w.n_samples
    assert np.array_equal(s.pairs_to_reducer, w.pairs_to_reducer)
    s.pairs_to_reducer[0] = 99
    assert w.pairs_to_reducer[0] == 10  # copy, not alias


def make_renderer(size=128, n_gpus=4):
    return MapReduceVolumeRenderer(
        volume=None,
        volume_shape=(size,) * 3,
        field=skull_field,
        cluster=n_gpus,
        tf=default_tf(),
        render_config=RenderConfig(dt=1.0),
    )


def test_simulate_sequence_resident_frames_faster():
    """After the first frame, resident re-renders skip uploads entirely."""
    r = make_renderer()
    cams = orbit_path((128,) * 3, 3, width=256, height=256)
    results = simulate_sequence(r, cams, resident=True)
    assert len(results) == 3
    first, later = results[0], results[1:]
    assert all(res.total_runtime < first.total_runtime for res in later)
    assert first.bytes_uploaded > 0
    assert all(res.bytes_uploaded == 0 for res in later)


def test_simulate_sequence_streaming_when_not_resident():
    r = make_renderer()
    cams = orbit_path((128,) * 3, 3, width=256, height=256)
    results = simulate_sequence(r, cams, resident=False)
    assert all(res.bytes_uploaded > 0 for res in results)
    # Frame times are comparable (every frame pays uploads).
    times = [res.total_runtime for res in results]
    assert max(times) < 1.5 * min(times)


def test_simulate_sequence_oversized_volume_falls_back_to_streaming():
    """A volume that cannot be resident streams every frame even with
    resident=True requested."""
    spec = accelerator_cluster(2).with_gpu(vram_bytes=1 << 17)  # 128 KiB GPUs
    r = MapReduceVolumeRenderer(
        volume=None,
        volume_shape=(64,) * 3,
        field=skull_field,
        cluster=spec,
        tf=default_tf(),
        render_config=RenderConfig(dt=1.0),
    )
    cams = orbit_path((64,) * 3, 2, width=64, height=64)
    results = simulate_sequence(r, cams, bricks_per_gpu=8, resident=True)
    assert all(res.bytes_uploaded > 0 for res in results)


def test_simulate_sequence_validation():
    r = make_renderer()
    with pytest.raises(ValueError):
        simulate_sequence(r, [])
