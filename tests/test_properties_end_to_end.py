"""Hypothesis property tests over the whole pipeline.

These randomise the *inputs* (volume content, brick shapes, camera
angles, reducer counts) and assert the structural invariants the system
is built on.  They complement the fixed-case tests by exploring corner
geometry (1-voxel bricks, extreme aspect ratios, off-axis views).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import InProcessExecutor, RoundRobinPartitioner
from repro.pipeline import MapReduceVolumeRenderer
from repro.render import (
    RenderConfig,
    default_tf,
    grayscale_tf,
    max_abs_diff,
    orbit_camera,
    render_reference,
)
from repro.volume import BrickGrid, Volume

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def random_volume(rng, shape):
    """Smooth random field: random low-res noise upsampled by repetition."""
    coarse = rng.uniform(0, 1, tuple(max(s // 3, 1) for s in shape)).astype(np.float32)
    reps = [int(np.ceil(s / c)) for s, c in zip(shape, coarse.shape)]
    data = np.tile(coarse, reps)[: shape[0], : shape[1], : shape[2]]
    return Volume(np.ascontiguousarray(data))


@given(
    seed=st.integers(0, 2**31 - 1),
    shape=st.tuples(st.integers(6, 18), st.integers(6, 18), st.integers(6, 18)),
    brick=st.tuples(st.integers(2, 9), st.integers(2, 9), st.integers(2, 9)),
    az=st.floats(0, 360),
    el=st.floats(-75, 75),
)
@SLOW
def test_any_bricking_any_view_matches_reference(seed, shape, brick, az, el):
    """THE invariant, randomised: bricked fragments composite to the
    single-pass image for arbitrary volumes, brickings, and views."""
    rng = np.random.default_rng(seed)
    v = random_volume(rng, shape)
    cam = orbit_camera(v.shape, azimuth_deg=az, elevation_deg=el, width=24, height=24)
    cfg = RenderConfig(dt=1.1, ert_alpha=1.0)
    tf = grayscale_tf(max_alpha=0.6)
    ref = render_reference(v, cam, tf, cfg)
    from tests.test_raycast import render_bricked

    grid = BrickGrid(v.shape, brick, ghost=1)
    img, _, _ = render_bricked(v, grid, cam, tf, cfg)
    assert max_abs_diff(img, ref.image) < 1e-4


@given(
    seed=st.integers(0, 2**31 - 1),
    n_gpus=st.integers(1, 6),
)
@SLOW
def test_pipeline_reducer_count_invariance(seed, n_gpus):
    """The number of reducers must never change the image."""
    rng = np.random.default_rng(seed)
    v = random_volume(rng, (12, 12, 12))
    cam = orbit_camera(v.shape, width=24, height=24)
    cfg = RenderConfig(dt=1.0, ert_alpha=1.0)
    base = MapReduceVolumeRenderer(
        volume=v, cluster=1, tf=default_tf(), render_config=cfg
    ).render(cam)
    multi = MapReduceVolumeRenderer(
        volume=v, cluster=n_gpus, tf=default_tf(), render_config=cfg
    ).render(cam)
    assert max_abs_diff(multi.image, base.image) < 1e-4


@given(seed=st.integers(0, 2**31 - 1), threshold=st.integers(1, 50))
@settings(max_examples=20, deadline=None)
def test_send_threshold_never_changes_results(seed, threshold):
    """Streaming granularity is a pure performance knob: a replayed frame
    moves the same pairs and bytes in more, smaller messages."""
    from repro.core import JobConfig
    from repro.pipeline.workload import replay

    rng = np.random.default_rng(seed)
    v = random_volume(rng, (10, 10, 10))
    cam = orbit_camera(v.shape, width=16, height=16)
    cfg = RenderConfig(dt=1.0, ert_alpha=1.0)
    r = MapReduceVolumeRenderer(
        volume=v, cluster=8, tf=default_tf(), render_config=cfg
    )
    res = r.render(cam)
    small, big = (
        replay(r, res, job_config=JobConfig(send_threshold_pairs=thr))
        for thr in (threshold, 1 << 16)
    )
    assert np.array_equal(small.pairs_per_reducer, big.pairs_per_reducer)
    assert small.bytes_internode == big.bytes_internode
    assert small.bytes_intranode == big.bytes_intranode
    assert small.n_messages >= big.n_messages


@given(
    keys=st.lists(st.integers(0, 99), min_size=1, max_size=200),
    n_red=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_partition_preserves_every_pair_exactly_once(keys, n_red):
    """Conservation: routing loses nothing and duplicates nothing."""
    p = RoundRobinPartitioner(n_red)
    karr = np.asarray(keys, dtype=np.int64)
    dests = p.partition(karr)
    total = sum(int(np.count_nonzero(dests == r)) for r in range(n_red))
    assert total == len(keys)
    # Each key goes to exactly the reducer the modulo says.
    assert np.array_equal(dests, karr % n_red)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_fragment_alpha_bounded_by_reference_alpha(seed):
    """Per-pixel accumulated alpha of the distributed render equals the
    reference's (alpha is view-transport, independent of grouping)."""
    rng = np.random.default_rng(seed)
    v = random_volume(rng, (10, 10, 10))
    cam = orbit_camera(v.shape, width=16, height=16)
    cfg = RenderConfig(dt=1.0, ert_alpha=1.0)
    tf = grayscale_tf()
    ref = render_reference(v, cam, tf, cfg)
    res = MapReduceVolumeRenderer(
        volume=v, cluster=3, tf=tf, render_config=cfg
    ).render(cam)
    assert np.allclose(res.image[..., 3], ref.image[..., 3], atol=1e-5)
    assert res.image[..., 3].max() <= 1.0 + 1e-6


@given(
    shape=st.tuples(st.integers(4, 20), st.integers(4, 20), st.integers(4, 20)),
    brick=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_total_payload_at_least_volume(shape, brick):
    """Ghost shells only ever add bytes."""
    grid = BrickGrid(shape, brick, ghost=1)
    assert sum(b.nbytes for b in grid) >= int(np.prod(shape)) * 4
    zero_ghost = BrickGrid(shape, brick, ghost=0)
    assert sum(b.nbytes for b in zero_ghost) == int(np.prod(shape)) * 4
