"""Validation of the analytic workload model against functional runs."""

import numpy as np
import pytest

from repro.core import InProcessExecutor, RoundRobinPartitioner
from repro.pipeline import MapReduceVolumeRenderer
from repro.pipeline.workload import build_workload, model_brick_work
from repro.pipeline.workload import _route_exact
from repro.render import RenderConfig, default_tf, orbit_camera
from repro.volume import BrickGrid, grid_occupancy, make_dataset


@pytest.fixture(scope="module")
def setup():
    vol = make_dataset("supernova", (32, 32, 32))
    cam = orbit_camera(vol.shape, azimuth_deg=30, elevation_deg=20, width=64, height=64)
    tf = default_tf()
    cfg = RenderConfig(dt=0.8, ert_alpha=1.0, emit_placeholders=True)
    grid = BrickGrid(vol.shape, 16, ghost=1)
    return vol, cam, tf, cfg, grid


def functional_works(vol, cam, tf, cfg, grid, n_gpus=4):
    r = MapReduceVolumeRenderer(
        volume=vol, cluster=n_gpus, tf=tf, render_config=cfg
    )
    spec = r._spec(cam)
    chunks = r._in_core_chunks(grid)[1]
    res = InProcessExecutor().execute(spec, chunks, [c.id % n_gpus for c in chunks])
    return res.works


def test_model_ray_counts_exact(setup):
    """Padded ray counts are pure geometry — the model must match exactly."""
    vol, cam, tf, cfg, grid = setup
    works = functional_works(vol, cam, tf, cfg, grid)
    occ = grid_occupancy(grid, tf.opacity_threshold_value(), volume=vol)
    for w in works:
        bw = model_brick_work(grid.brick(w.chunk_id), cam, cfg.dt, occ[w.chunk_id])
        assert bw.n_rays == w.n_rays, f"brick {w.chunk_id}"


def test_model_sample_counts_within_factor(setup):
    vol, cam, tf, cfg, grid = setup
    works = functional_works(vol, cam, tf, cfg, grid)
    occ = grid_occupancy(grid, tf.opacity_threshold_value(), volume=vol)
    total_real = sum(w.n_samples for w in works)
    # The functional run had ERT disabled (ert_alpha=1.0), so compare
    # against the ert=False model, which is pure geometry.
    total_model = sum(
        model_brick_work(
            grid.brick(w.chunk_id), cam, cfg.dt, occ[w.chunk_id], ert=False
        ).n_samples
        for w in works
    )
    assert total_model == pytest.approx(total_real, rel=0.35)


def test_model_fragment_counts_within_factor(setup):
    vol, cam, tf, cfg, grid = setup
    works = functional_works(vol, cam, tf, cfg, grid)
    occ = grid_occupancy(grid, tf.opacity_threshold_value(), volume=vol)
    real = sum(int(w.pairs_to_reducer.sum()) for w in works)
    model = sum(
        model_brick_work(grid.brick(w.chunk_id), cam, cfg.dt, occ[w.chunk_id]).kept_fragments
        for w in works
    )
    assert real > 0
    assert model == pytest.approx(real, rel=0.75)


def test_route_exact_conserves_and_balances(setup):
    vol, cam, tf, cfg, grid = setup
    part = RoundRobinPartitioner(4)
    for b in grid:
        routed = _route_exact(1000, b, cam, part)
        if routed.sum() == 0:
            continue
        assert int(routed.sum()) == 1000
        # Round-robin balances well; sub-rect aliasing (image width ≡ 0
        # mod n_reducers repeats each row's residue pattern) bounds the
        # skew at roughly the rect-width remainder effect, ~30%.
        assert routed.max() - routed.min() <= 0.35 * routed.max() + 8


def test_build_workload_shapes(setup):
    vol, cam, tf, cfg, grid = setup
    occ = grid_occupancy(grid, tf.opacity_threshold_value(), volume=vol)
    works = build_workload(grid, cam, cfg.dt, occ, RoundRobinPartitioner(4), n_gpus=4)
    assert len(works) == len(grid)
    assert {w.gpu for w in works} <= set(range(4))
    for w in works:
        assert w.pairs_emitted >= int(w.pairs_to_reducer.sum())
        assert w.upload_bytes == grid.brick(w.chunk_id).nbytes


def test_build_workload_validation(setup):
    vol, cam, tf, cfg, grid = setup
    occ = grid_occupancy(grid, tf.opacity_threshold_value(), volume=vol)
    with pytest.raises(ValueError):
        build_workload(grid, cam, cfg.dt, occ[:2], RoundRobinPartitioner(2), 2)
    with pytest.raises(ValueError):
        build_workload(grid, cam, cfg.dt, occ, RoundRobinPartitioner(2), 0)


def test_model_brick_work_validation(setup):
    vol, cam, tf, cfg, grid = setup
    b = grid.brick(0)
    with pytest.raises(ValueError):
        model_brick_work(b, cam, 0.0, 0.5)
    with pytest.raises(ValueError):
        model_brick_work(b, cam, 0.5, 1.5)


def test_empty_brick_produces_no_fragments(setup):
    vol, cam, tf, cfg, grid = setup
    bw = model_brick_work(grid.brick(0), cam, cfg.dt, occupancy=0.0)
    assert bw.kept_fragments == 0
    assert bw.n_rays > 0  # threads still launch over the footprint
