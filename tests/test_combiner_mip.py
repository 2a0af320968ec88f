"""Tests for the combiner and the MIP pluggability path."""

import numpy as np
import pytest

from repro.core import (
    Chunk,
    InProcessExecutor,
    KVSpec,
    MapReduceSpec,
    RoundRobinPartitioner,
)
from repro.pipeline import (
    FragmentCombiner,
    MIP_DTYPE,
    MapReduceVolumeRenderer,
    MaxIntensityMapper,
    MaxReducer,
)
from repro.render import RenderConfig, default_tf, max_abs_diff, orbit_camera
from repro.render.fragments import make_fragments
from repro.volume import BrickGrid, make_dataset


# -- combiner --------------------------------------------------------------
def frag(pixel, depth, rgba):
    return make_fragments(
        np.array([pixel], np.int32),
        np.array([depth], np.float32),
        np.array([rgba], np.float32),
    )


def test_combiner_merges_same_key_in_depth_order():
    c = FragmentCombiner()
    near = frag(5, 1.0, [0.5, 0.0, 0.0, 0.5])
    far = frag(5, 9.0, [0.0, 0.0, 0.8, 0.8])
    merged = c.combine(np.concatenate([far, near]))
    assert len(merged) == 1
    # over(near, far): r = 0.5, b = (1-0.5)*0.8 = 0.4, a = 0.5+0.5*0.8 = 0.9
    assert merged[0]["r"] == pytest.approx(0.5)
    assert merged[0]["b"] == pytest.approx(0.4)
    assert merged[0]["a"] == pytest.approx(0.9)
    assert merged[0]["depth"] == pytest.approx(1.0)  # front depth survives
    assert c.pairs_in == 2 and c.pairs_out == 1


def test_combiner_passthrough_when_keys_unique():
    c = FragmentCombiner()
    pairs = np.concatenate([frag(1, 1.0, [0.1] * 4), frag(2, 2.0, [0.2] * 4)])
    out = c.combine(pairs)
    assert np.array_equal(out, pairs)
    assert c.pairs_in == 2 and c.pairs_out == 2


def test_combiner_empty_and_type_check():
    c = FragmentCombiner()
    empty = np.empty(0, dtype=frag(0, 0, [0, 0, 0, 0]).dtype)
    assert len(c.combine(empty)) == 0
    with pytest.raises(TypeError):
        c.combine(np.zeros(2, np.dtype([("pixel", np.int32)])))


def test_pipeline_with_combiner_image_unchanged():
    """Adding the combiner cannot change the image (it merges correctly),
    and for ray-cast fragments it merges nothing (the paper's point)."""
    vol = make_dataset("supernova", (20, 20, 20))
    cam = orbit_camera(vol.shape, width=40, height=40)
    cfg = RenderConfig(dt=0.8, ert_alpha=1.0)
    base = MapReduceVolumeRenderer(
        volume=vol, cluster=2, tf=default_tf(), render_config=cfg
    ).render(cam)
    r = MapReduceVolumeRenderer(
        volume=vol, cluster=2, tf=default_tf(), render_config=cfg
    )
    spec = r._spec(cam)
    combiner = FragmentCombiner()
    spec.combiner = combiner
    grid = r._grid(2)
    chunks = r._in_core_chunks(grid)[1]
    res = InProcessExecutor().execute(spec, chunks)
    from repro.render import stitch_pixels

    img = stitch_pixels(
        [(k, v) for k, v in res.outputs if len(k)], cam.width, cam.height
    )
    assert max_abs_diff(img, base.image) == 0.0
    assert combiner.pairs_in == combiner.pairs_out  # nothing merged


# -- MIP pluggability -------------------------------------------------------
def mip_image(vol, cam, grid, n_red=2):
    spec = MapReduceSpec(
        mapper=MaxIntensityMapper(cam, vol.shape, dt=0.5),
        reducer=MaxReducer(),
        partitioner=RoundRobinPartitioner(n_red),
        kv=KVSpec(MIP_DTYPE, key_field="pixel"),
        max_key=cam.pixel_count - 1,
    )
    chunks = [
        Chunk(id=b.id, nbytes=b.nbytes, data=grid.extract(vol, b), meta=b)
        for b in grid
    ]
    res = InProcessExecutor().execute(spec, chunks)
    img = np.zeros(cam.pixel_count, np.float32)
    for keys, values in res.outputs:
        img[keys] = values
    return img


def test_mip_brick_invariance():
    """MIP's max fold is order/partition independent: any bricking gives
    the same image."""
    vol = make_dataset("supernova", (24, 24, 24))
    cam = orbit_camera(vol.shape, width=48, height=48)
    single = mip_image(vol, cam, BrickGrid(vol.shape, 24, ghost=1))
    bricked = mip_image(vol, cam, BrickGrid(vol.shape, 8, ghost=1))
    assert np.abs(single - bricked).max() < 1e-5


def test_mip_upper_bounds_volume_max():
    vol = make_dataset("supernova", (24, 24, 24))
    cam = orbit_camera(vol.shape, width=48, height=48)
    img = mip_image(vol, cam, BrickGrid(vol.shape, 12, ghost=1))
    assert img.max() <= vol.data.max() + 1e-6
    assert img.max() > 0.5 * vol.data.max()  # the core is visible


def test_mip_mapper_validation():
    cam = orbit_camera((8, 8, 8), width=16, height=16)
    for dt in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            MaxIntensityMapper(cam, (8, 8, 8), dt=dt)
