"""Equivalence suite for the blocked vectorized ray marcher.

The blocked kernel in ``repro.render.raycast`` must produce the same
fragments and the same :class:`MapStats` counters as a straight-line
per-sample reference marcher that shares only the ownership-interval
and geometry helpers.  Hypothesis drives the comparison across random
bricks, cameras, step sizes, block sizes, shading, early-ray-termination
and placeholder emission.

Early-ray-termination semantics: the kernel checks the accumulated
alpha at block boundaries (ERT at block granularity), so the reference
marcher does the same — ``block_size=1`` is exactly classic per-step
termination.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render import (
    MapStats,
    RenderConfig,
    composite_pixel_fragments,
    default_tf,
    empty_fragments,
    grayscale_tf,
    make_fragments,
    opacity_correction,
    orbit_camera,
    raycast_brick,
    segmented_exclusive_cumprod,
    trilinear_sample,
)
from repro.render.fragments import PLACEHOLDER_KEY
from repro.render.geometry import dual_box_intersect_f32
from repro.render.raycast import _sample_intervals
from repro.volume import BrickGrid, Volume

F32 = np.float32


def reference_marcher(data, data_lo, core_lo, core_hi, volume_shape, camera, tf, config):
    """Straight-line per-sample marcher — one ray, one step at a time.

    Shares the footprint, the slab intervals, and the per-sample
    primitives (trilinear / transfer / opacity correction) with the
    blocked kernel, but accumulates sequentially in plain Python so any
    vectorization bug in the kernel shows up as a mismatch.
    """
    stats = MapStats()
    core_lo_w = np.asarray(core_lo, np.float64)
    core_hi_w = np.asarray(core_hi, np.float64)
    corners = np.array(
        [
            [
                (core_lo_w[0], core_hi_w[0])[(c >> 0) & 1],
                (core_lo_w[1], core_hi_w[1])[(c >> 1) & 1],
                (core_lo_w[2], core_hi_w[2])[(c >> 2) & 1],
            ]
            for c in range(8)
        ]
    )
    rect = camera.brick_rect(corners, pad_to_block=config.pad_to_block)
    if rect.empty:
        return empty_fragments(), stats
    dirs, keys = camera.rect_rays_f32(rect)
    n = len(keys)
    stats.n_rays = n
    eye = np.asarray(camera.eye, np.float64)
    tn_b, tf_b, hit_b, tn_v, _, hit_v = dual_box_intersect_f32(
        eye, dirs, core_lo_w, core_hi_w, np.zeros(3), volume_shape
    )
    active = hit_b & hit_v & (tf_b > tn_b)
    stats.n_active_rays = int(active.sum())
    dt = F32(config.dt)
    base_w = (eye - np.asarray(data_lo, np.float64)).astype(F32)

    pix = np.full(n, PLACEHOLDER_KEY, np.int32)
    depth = np.zeros(n, F32)
    rgba = np.zeros((n, 4), F32)
    kept = np.zeros(n, bool)

    for i in range(n):
        if not active[i]:
            continue
        kf, cnt = _sample_intervals(
            tn_b[i : i + 1], tf_b[i : i + 1], tn_v[i : i + 1], dt
        )
        kf, cnt = int(kf[0]), int(cnt[0])
        if cnt == 0:
            continue
        t0 = F32(tn_v[i] + (F32(kf) + F32(0.5)) * dt)
        acc_rgb = np.zeros(3, F32)
        acc_a = F32(0.0)
        for j in range(cnt):
            t = F32(t0 + np.int32(j) * dt)
            pos = base_w + t * dirs[i]
            stats.n_samples += config.fetches_per_sample
            val = trilinear_sample(data, pos[None, :])
            srgba = tf.lookup(val)[0].copy()
            if config.shading:
                from repro.render.shading import central_gradient, shade_phong

                grads = central_gradient(data, pos[None, :])
                srgba[:3] = shade_phong(srgba[None, :3], grads, dirs[i : i + 1])[0]
            a = opacity_correction(srgba[3:4], config.dt)[0]
            one_m = F32(1.0) - acc_a
            acc_rgb = acc_rgb + (one_m * a) * srgba[:3]
            acc_a = acc_a + one_m * a
            # ERT at block granularity: check on block boundaries only.
            if (
                config.ert_alpha < 1.0
                and (j + 1) % config.block_size == 0
                and acc_a >= config.ert_alpha
            ):
                break
        depth[i] = t0
        if acc_a > config.alpha_eps:
            pix[i] = keys[i]
            rgba[i, :3] = acc_rgb
            rgba[i, 3] = acc_a
            kept[i] = True

    stats.n_kept = int(kept.sum())
    stats.n_emitted = n if config.emit_placeholders else stats.n_kept
    if config.emit_placeholders:
        return make_fragments(pix, np.where(kept, depth, F32(0.0)), rgba), stats
    sel = np.nonzero(kept)[0]
    return make_fragments(pix[sel], depth[sel], rgba[sel]), stats


def assert_equivalent(vol, brick, camera, tf, config, atol=2e-4):
    data = (
        vol.region(brick.data_lo, brick.data_hi)
        if brick is not None
        else vol.data
    )
    data_lo = brick.data_lo if brick is not None else (0, 0, 0)
    core_lo = brick.lo if brick is not None else (0, 0, 0)
    core_hi = brick.hi if brick is not None else vol.shape
    got, gst = raycast_brick(
        data, data_lo, core_lo, core_hi, vol.shape, camera, tf, config
    )
    want, wst = reference_marcher(
        data, data_lo, core_lo, core_hi, vol.shape, camera, tf, config
    )
    # MapStats counter equality — exact.
    assert gst.n_rays == wst.n_rays
    assert gst.n_active_rays == wst.n_active_rays
    assert gst.n_samples == wst.n_samples
    assert gst.n_emitted == wst.n_emitted
    assert gst.n_kept == wst.n_kept
    assert len(got) == len(want)
    if len(got) == 0:
        return
    assert np.array_equal(got["pixel"], want["pixel"])
    assert np.array_equal(got["depth"], want["depth"])  # closed form, exact
    for ch in ("r", "g", "b", "a"):
        np.testing.assert_allclose(got[ch], want[ch], atol=atol)


def make_volume(rng, shape):
    return Volume(rng.uniform(0.0, 1.0, shape).astype(np.float32))


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_blocked_matches_reference_full_volume(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vol = make_volume(rng, (14, 14, 14))
    cam = orbit_camera(
        vol.shape,
        azimuth_deg=data.draw(st.floats(0, 360)),
        elevation_deg=data.draw(st.floats(-80, 80)),
        width=24,
        height=24,
    )
    config = RenderConfig(
        dt=data.draw(st.sampled_from([0.5, 0.8, 1.0, 1.35])),
        ert_alpha=data.draw(st.sampled_from([1.0, 0.9])),
        block_size=data.draw(st.sampled_from([1, 2, 3, 8, 64])),
        emit_placeholders=data.draw(st.booleans()),
    )
    assert_equivalent(vol, None, cam, default_tf(), config)


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_blocked_matches_reference_random_brick(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vol = make_volume(rng, (16, 16, 16))
    grid = BrickGrid(vol.shape, data.draw(st.sampled_from([6, 8, 11])), ghost=1)
    brick = grid.brick(data.draw(st.integers(0, len(list(grid)) - 1)))
    cam = orbit_camera(
        vol.shape,
        azimuth_deg=data.draw(st.floats(0, 360)),
        elevation_deg=data.draw(st.floats(-60, 60)),
        width=24,
        height=24,
    )
    config = RenderConfig(
        dt=data.draw(st.sampled_from([0.6, 1.0])),
        ert_alpha=data.draw(st.sampled_from([1.0, 0.9])),
        block_size=data.draw(st.sampled_from([1, 4, 32])),
    )
    assert_equivalent(vol, brick, cam, default_tf(), config)


@pytest.mark.parametrize("block_size", [1, 2, 8, 64])
def test_blocked_matches_reference_shaded(block_size):
    rng = np.random.default_rng(7)
    vol = make_volume(rng, (12, 12, 12))
    cam = orbit_camera(vol.shape, azimuth_deg=40, elevation_deg=25, width=20, height=20)
    config = RenderConfig(
        dt=0.8, ert_alpha=1.0, shading=True, block_size=block_size
    )
    assert_equivalent(vol, None, cam, default_tf(), config, atol=5e-4)


def test_block_size_one_equals_per_step_ert():
    """block_size=1 is classic per-step termination: n_samples is minimal."""
    rng = np.random.default_rng(3)
    vol = Volume(np.full((24, 24, 24), 0.95, np.float32))
    cam = orbit_camera(vol.shape, width=24, height=24)
    tf = grayscale_tf(max_alpha=0.99)
    samples = {}
    for bs in (1, 4, 16, 64):
        _, stats = raycast_brick(
            vol.data, (0, 0, 0), (0, 0, 0), vol.shape, vol.shape, cam, tf,
            RenderConfig(dt=0.5, ert_alpha=0.9, block_size=bs),
        )
        samples[bs] = stats.n_samples
    assert samples[1] <= samples[4] <= samples[16] <= samples[64]
    # Termination still beats no termination while blocks are shorter
    # than the ray windows (at 64 a whole crossing can fit one block).
    _, full = raycast_brick(
        vol.data, (0, 0, 0), (0, 0, 0), vol.shape, vol.shape, cam, tf,
        RenderConfig(dt=0.5, ert_alpha=1.0),
    )
    assert samples[16] < full.n_samples
    assert samples[64] <= full.n_samples


def test_empty_space_skip_does_not_change_image():
    """The corner-max skip table must be invisible in the output: a volume
    with large exactly-transparent regions renders identically whether or
    not the table is built (forced off via a tiny expected sample count is
    impractical, so compare against the reference marcher instead)."""
    rng = np.random.default_rng(11)
    data = np.zeros((16, 16, 16), np.float32)
    data[4:12, 4:12, 4:12] = rng.uniform(0.0, 1.0, (8, 8, 8)).astype(np.float32)
    vol = Volume(data)
    cam = orbit_camera(vol.shape, azimuth_deg=15, elevation_deg=35, width=24, height=24)
    config = RenderConfig(dt=0.7, ert_alpha=1.0, block_size=16)
    assert_equivalent(vol, None, cam, default_tf(), config)


# -- the shared segmented scan ------------------------------------------------
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_segmented_exclusive_cumprod_matches_loop(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 200))
    values = rng.uniform(0.0, 1.2, n).astype(np.float32)
    seg_start = rng.uniform(0, 1, n) < 0.3
    seg_start[0] = True
    got = segmented_exclusive_cumprod(values, seg_start)
    run = 1.0
    for i in range(n):
        if seg_start[i]:
            run = 1.0
        assert got[i] == pytest.approx(run, rel=1e-5, abs=1e-7), i
        run *= float(values[i])


def test_composite_pixel_fragments_empty():
    assert np.array_equal(
        composite_pixel_fragments(empty_fragments()), np.zeros(4, np.float32)
    )
