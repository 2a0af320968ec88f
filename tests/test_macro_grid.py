"""Conformance & invariants suite for the occupied-box trim.

(The file keeps the name of the macro-cell grid suite it grew out of:
the carve is gone, ``accel="grid"`` is a spelling of ``"table"``, and
the conformance cases that outlived it keep their test ids.)

``RenderConfig(accel="table")`` probes a per-voxel corner-max table
before each gather and positions only the part of each ray that crosses
the box of the table's occupied cells.  Its contract is brutal on
purpose: it must be **bitwise identical** to ``accel="off"`` — fragment
keys, depths, colours, and every :class:`MapStats` counter — because the
golden-image layer pins all of them.  This suite drives that equivalence
across randomized payloads (blobs, shells, single voxels, cells on a
payload face, dense noise, all-empty), transfer functions (leading-zero
ramps, no-leading-zero, all-opaque, identically-zero alpha, interior
zero runs, tiny tables), cameras (orbiting, inside the brick,
axis-parallel rays), step and block sizes, shading, placeholders,
ghost-padded bricks and fused launches.

It also checks the structures' invariants directly: no table cell may be
``False`` if a sample based there can produce non-zero alpha under the
kernel's own arithmetic, the box holds every ``True`` cell, every sample
the table passes lies inside its ray's ``[lead, trail)``, and what the
trim costs (one slab test, only where a box has a finite face; cached
with the table).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MapReduceVolumeRenderer, make_dataset, orbit_camera
from repro.parallel import SharedMemoryPoolExecutor
from repro.parallel.worker import TF_ARENA_KEY
from repro.render import (
    RenderConfig,
    TransferFunction1D,
    default_tf,
    grayscale_tf,
    raycast_brick,
)
from repro.render import raycast
from repro.render.accel import AccelCache, invalidate_volume, volume_token
from repro.render.camera import Camera
from repro.render.raycast import (
    BrickTask,
    _alpha_zero_threshold,
    _empty_space_table,
    _occupied_box,
    _trilinear_flat,
    raycast_bricks,
)
from repro.volume import BrickGrid, Volume

F32 = np.float32


# -- scenario generators ------------------------------------------------------
def _ramp_tf(alphas):
    a = np.asarray(alphas, np.float32)
    table = np.stack([a * 0 + 0.5, a * 0 + 0.25, a * 0 + 0.75, a], axis=1)
    return TransferFunction1D(table)


def random_tf(rng):
    """Random transfer function spanning every zero-alpha edge case."""
    kind = rng.choice(
        [
            "default",
            "grayscale",
            "leading_zero",
            "no_leading_zero",
            "all_opaque",
            "all_zero",
            "interior_zero",
            "tiny",
        ]
    )
    if kind == "default":
        return default_tf()
    if kind == "grayscale":
        return grayscale_tf()
    n = int(rng.integers(8, 64))
    if kind == "leading_zero":
        z = int(rng.integers(1, n - 1))
        a = np.r_[np.zeros(z), rng.uniform(0.05, 1.0, n - z)]
    elif kind == "no_leading_zero":
        a = rng.uniform(0.05, 1.0, n)
    elif kind == "all_opaque":
        a = rng.uniform(0.5, 1.0, n)
    elif kind == "all_zero":
        a = np.zeros(n)
    elif kind == "interior_zero":
        z0 = int(rng.integers(1, n // 2))
        z1 = int(rng.integers(z0 + 1, n - 1))
        a = rng.uniform(0.05, 1.0, n)
        a[:z0] = 0.0  # leading run
        a[z0 + 1 : z1] = 0.0  # interior run the kernel must NOT skip
    else:  # tiny
        a = np.r_[0.0, rng.uniform(0.1, 1.0, 3)]
    return _ramp_tf(a)


VOLUME_KINDS = ["blob", "shell", "dense", "empty", "two_blobs", "voxel", "face"]


def random_volume(rng, kind=None):
    """Random volume spanning sparse / shell / dense / empty layouts."""
    shape = tuple(int(rng.integers(8, 24)) for _ in range(3))
    if kind is None:
        kind = rng.choice(VOLUME_KINDS)
    data = np.zeros(shape, np.float32)
    if kind == "dense":
        data = rng.uniform(0.0, 1.0, shape).astype(np.float32)
    elif kind == "blob":
        lo = [int(rng.integers(0, s // 2)) for s in shape]
        hi = [int(rng.integers(l + 2, s + 1)) for l, s in zip(lo, shape)]
        data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = rng.uniform(
            0.1, 1.0, tuple(h - l for l, h in zip(lo, hi))
        ).astype(np.float32)
    elif kind == "two_blobs":
        for _ in range(2):
            lo = [int(rng.integers(0, max(1, s - 4))) for s in shape]
            hi = [min(s, l + int(rng.integers(2, 6))) for l, s in zip(lo, shape)]
            data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = rng.uniform(
                0.1, 1.0, tuple(h - l for l, h in zip(lo, hi))
            ).astype(np.float32)
    elif kind == "shell":
        t = max(1, min(shape) // 6)
        data[:] = rng.uniform(0.2, 1.0, shape).astype(np.float32)
        data[t:-t, t:-t, t:-t] = 0.0
    elif kind == "voxel":
        data[tuple(int(rng.integers(0, s)) for s in shape)] = 1.0
    elif kind == "face":  # a slab of cells lying on one payload face
        axis = int(rng.integers(0, 3))
        sl = [slice(int(rng.integers(0, s // 2)), s // 2 + 2) for s in shape]
        sl[axis] = slice(0, 2) if rng.integers(0, 2) else slice(shape[axis] - 2, None)
        data[tuple(sl)] = rng.uniform(0.3, 1.0, data[tuple(sl)].shape)
    return Volume(data)


def random_config(rng, accel):
    return RenderConfig(
        dt=float(rng.choice([0.35, 0.5, 0.8, 1.0, 1.45])),
        ert_alpha=float(rng.choice([1.0, 0.95, 0.9])),
        block_size=int(rng.choice([1, 3, 8, 32])),
        emit_placeholders=bool(rng.integers(0, 2)),
        accel=accel,
        kernel="numpy",
    )


def assert_modes_agree(cast):
    """``cast(accel)`` -> ``[(fragments, stats), ...]``: "table" (under
    both spellings) must equal "off" bit for bit, stats included."""
    want = cast("off")
    for accel in ("table", "grid"):
        got = cast(accel)
        assert len(got) == len(want)
        for (frags, stats), (frags_off, stats_off) in zip(got, want):
            assert frags.dtype == frags_off.dtype
            assert frags.tobytes() == frags_off.tobytes(), f"accel={accel} diverged"
            assert stats == stats_off, f"accel={accel} stats diverged"
            assert stats.n_positioned <= stats_off.n_positioned


def assert_bitwise_conformance(vol, brick, cam, tf, rng):
    """One brick (or the whole volume) under a random config."""
    data = (
        vol.region(brick.data_lo, brick.data_hi) if brick is not None else vol.data
    )
    data_lo = brick.data_lo if brick is not None else (0, 0, 0)
    core_lo = brick.lo if brick is not None else (0, 0, 0)
    core_hi = brick.hi if brick is not None else vol.shape
    state = rng.bit_generator.state

    def cast(accel):
        rng.bit_generator.state = state  # same draw for every mode
        cfg = random_config(rng, accel)
        return [raycast_brick(data, data_lo, core_lo, core_hi, vol.shape, cam, tf, cfg)]

    assert_modes_agree(cast)


# -- randomized conformance ---------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_grid_conformance_randomized(seed):
    rng = np.random.default_rng(1000 + seed)
    vol = random_volume(rng)
    tf = random_tf(rng)
    cam = orbit_camera(
        vol.shape,
        azimuth_deg=float(rng.uniform(0, 360)),
        elevation_deg=float(rng.uniform(-75, 75)),
        width=28,
        height=28,
    )
    assert_bitwise_conformance(vol, None, cam, tf, rng)


@pytest.mark.parametrize("seed", range(6))
def test_grid_conformance_random_bricks(seed):
    """Ghost-padded bricks: clamped edge cells and interior no-clamp paths."""
    rng = np.random.default_rng(2000 + seed)
    vol = random_volume(rng)
    edge = int(rng.integers(5, max(6, min(vol.shape))))
    grid = BrickGrid(vol.shape, edge, ghost=1)
    brick = grid.brick(int(rng.integers(0, len(list(grid)))))
    tf = random_tf(rng)
    cam = orbit_camera(
        vol.shape,
        azimuth_deg=float(rng.uniform(0, 360)),
        elevation_deg=float(rng.uniform(-60, 60)),
        width=24,
        height=24,
    )
    assert_bitwise_conformance(vol, brick, cam, tf, rng)


def test_grid_conformance_axis_aligned_camera():
    """Zero direction components hit the slab test's parallel-ray path."""
    rng = np.random.default_rng(9)
    data = np.zeros((16, 16, 16), np.float32)
    data[2:7, 2:7, 2:7] = rng.uniform(0.3, 1.0, (5, 5, 5)).astype(np.float32)
    vol = Volume(data)
    for az, el in [(0.0, 0.0), (90.0, 0.0), (0.0, 89.9), (180.0, 0.0)]:
        for size in (20, 21):  # odd: the centre column is axis-parallel
            cam = orbit_camera(vol.shape, azimuth_deg=az, elevation_deg=el,
                               width=size, height=size)
            assert_bitwise_conformance(vol, None, cam, default_tf(), rng)


def _cameras(shape):
    """Orbiting, axis-parallel (odd-sized, axis-aligned) and inside the
    volume looking out through it."""
    centre = tuple(s / 2.0 for s in shape)
    inside = tuple(s * f for s, f in zip(shape, (0.4, 0.55, 0.45)))
    return st.one_of(
        st.builds(
            lambda az, el: orbit_camera(
                shape, azimuth_deg=az, elevation_deg=el, width=24, height=24
            ),
            st.floats(0, 360), st.floats(-80, 80),
        ),
        st.builds(
            lambda az, el: orbit_camera(
                shape, azimuth_deg=az, elevation_deg=el, width=21, height=21
            ),
            st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.sampled_from([0.0, 89.9]),
        ),
        st.builds(
            lambda dx, dy, dz, fov: Camera(
                eye=inside,
                center=tuple(c + d for c, d in zip(inside, (dx, dy, dz))),
                fov_y=math.radians(fov), width=24, height=24,
            ),
            st.floats(-1, 1), st.floats(0.1, 1), st.floats(-0.7, 0.7),
            st.sampled_from([45.0, 90.0]),
        ),
        st.just(
            Camera(eye=inside, center=centre, fov_y=math.radians(100.0),
                   width=20, height=20)
        ),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_trimmed_table_is_bitwise_accel_off(data):
    """The property: a launch of bricks — whole payloads of every kind,
    ghost-padded bricks, a size-1-axis slab, off-screen and rayless
    ones, fused in one launch — casts to the same bytes and the same
    ``MapStats`` with the trim as without the table at all."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vol = random_volume(rng, data.draw(st.sampled_from(VOLUME_KINDS)))
    tf = random_tf(rng) if data.draw(st.booleans()) else default_tf()
    cam = data.draw(_cameras(vol.shape))
    config = dict(
        dt=data.draw(st.sampled_from([0.35, 0.5, 0.8, 1.0])),
        ert_alpha=data.draw(st.sampled_from([1.0, 0.9, 0.5])),
        block_size=data.draw(st.sampled_from([1, 3, 8])),
        shading=data.draw(st.booleans()),
        emit_placeholders=data.draw(st.booleans()),
        kernel="numpy",
    )
    if data.draw(st.booleans()):  # the whole volume as one payload
        tasks = [BrickTask(vol.data, (0, 0, 0), (0, 0, 0), vol.shape)]
    else:  # a fused launch of ghost-padded bricks and a thin slab
        grid = BrickGrid(vol.shape, data.draw(st.sampled_from([5, 7, 10])), ghost=1)
        tasks = [
            BrickTask(grid.extract(vol, b), b.data_lo, b.lo, b.hi) for b in grid
        ]
        z = vol.shape[2] // 2
        tasks.insert(
            data.draw(st.integers(0, len(tasks))),
            BrickTask(
                np.ascontiguousarray(vol.data[:, :, z : z + 1]),
                (0, 0, z), (0, 0, z), vol.shape[:2] + (z + 1,),
            ),
        )

    def cast(accel):
        return raycast_bricks(
            tasks, vol.shape, cam, tf, RenderConfig(accel=accel, **config)
        )

    assert_modes_agree(cast)


# -- structure invariants -----------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_no_empty_cell_can_produce_alpha(seed):
    """The table's proof obligation, checked sample-by-sample: any
    position whose (clamped) trilinear base is a ``False`` cell must
    interpolate a value the kernel's own float32 filter drops
    (u <= u_thr) — i.e. its alpha is exactly zero — and every ``True``
    cell lies inside the occupied box."""
    rng = np.random.default_rng(3000 + seed)
    data = random_volume(rng).data
    tf = random_tf(rng)
    u_thr = _alpha_zero_threshold(tf)
    if u_thr < 0:
        return  # nothing is ever skipped: vacuously safe
    table = _empty_space_table(data, tf, u_thr).reshape(data.shape)
    box = _occupied_box(table.ravel(), data.shape)
    nx, ny, nz = data.shape
    assert not table[nx - 1].any() and not table[:, ny - 1].any()
    assert not table[:, :, nz - 1].any()  # bases run over [0, n−2]
    occupied = np.argwhere(table)
    if len(occupied):
        assert (occupied >= box[0]).all() and (occupied + 1 <= box[1]).all()
        # open faces are exactly those on the payload's first / last cell
        for axis, n in enumerate(data.shape):
            assert np.isinf(box[0, axis]) == (occupied[:, axis].min() == 0)
            assert np.isinf(box[1, axis]) == (occupied[:, axis].max() == n - 2)
    else:
        assert (box == np.inf).all()
    empty = np.argwhere(~table[: nx - 1, : ny - 1, : nz - 1])
    flat = np.ascontiguousarray(data).ravel()
    for ci, cj, ck in empty[rng.permutation(len(empty))[:20]]:
        m = 64  # random positions whose base index is this cell
        cx = rng.uniform(ci, ci + 1, m).astype(F32)
        cy = rng.uniform(cj, cj + 1, m).astype(F32)
        cz = rng.uniform(ck, ck + 1, m).astype(F32)
        vals = _trilinear_flat(flat, data.shape, cx, cy, cz)
        u = tf.table_coord(vals)
        assert np.all(u <= F32(u_thr)), (ci, cj, ck)
        assert np.all(tf.lookup(vals)[:, 3] == 0.0), (ci, cj, ck)


def test_interior_zero_alpha_cells_stay_occupied():
    """Cells whose range maps into an *interior* zero-alpha run must NOT
    be skipped: the unaccelerated kernel marches those samples (their
    alpha is zero but they occupy scan slots), so dropping them would
    shift float association.  The table may only use the leading run —
    and an all-``True`` table has no finite face to trim at."""
    a = np.zeros(32, np.float32)
    a[8:16] = 0.5  # visible band
    # 16.. stays zero: interior-adjacent trailing zero run
    tf = _ramp_tf(a)
    data = np.full((8, 8, 8), 0.9, np.float32)  # maps into trailing zeros
    table = _empty_space_table(data, tf, _alpha_zero_threshold(tf))
    assert table.reshape(data.shape)[:7, :7, :7].all()
    assert np.isinf(_occupied_box(table, data.shape)).all()


def _cast_whole(data, tf, accel, cam=None, **config):
    cam = cam or orbit_camera(data.shape, azimuth_deg=33, elevation_deg=18,
                              width=40, height=40)
    return raycast_brick(
        data, (0, 0, 0), (0, 0, 0), data.shape, data.shape, cam, tf,
        RenderConfig(accel=accel, kernel="numpy", **config),
    )


def test_all_zero_alpha_tf_carves_everything():
    """Nothing can show: the table is all ``False``, its box is the one
    no ray enters, and the march positions not a single sample — while
    charging every owned one, like ``accel="off"``."""
    tf = _ramp_tf(np.zeros(16, np.float32))
    data = np.random.default_rng(0).uniform(0, 1, (12, 12, 12)).astype(F32)
    for tf_i in (tf, _ramp_tf(np.r_[np.zeros(15), 1.0])):  # u_thr = inf, 14
        table = _empty_space_table(data * F32(0.5), tf_i, _alpha_zero_threshold(tf_i))
        assert not table.any()
        frags, stats = _cast_whole(data * F32(0.5), tf_i, "table")
        frags_off, stats_off = _cast_whole(data * F32(0.5), tf_i, "off")
        assert len(frags) == len(frags_off) == 0 and stats == stats_off
        assert stats.n_positioned == 0 < stats_off.n_positioned == stats.n_samples


def _spy_on_launch(monkeypatch):
    """Record the plans the numpy kernel is handed and count the
    launch-wide slab tests of the set-up."""
    from repro.render import kernels
    from repro.render.kernels import numpy_backend

    plans, slab_tests = [], []

    def march(plan):
        plans.append(plan)
        return numpy_backend.march(plan)

    def box_intersect(*args):
        slab_tests.append(len(args[2]))
        return box_test(*args)

    box_test = raycast.box_intersect_f32
    spy = kernels.KernelSpec("numpy", march, numpy_backend.warmup)
    monkeypatch.setattr(kernels, "resolve_kernel", lambda name, **kw: spy)
    monkeypatch.setattr(raycast, "box_intersect_f32", box_intersect)
    return plans, slab_tests


def test_no_leading_zero_and_opaque_tfs_have_no_table_and_no_trim(monkeypatch):
    """Where there is nothing to skip — no leading zero-alpha run, or a
    table that is ``True`` wherever a base can fall — the plan carries no
    trim interval and the set-up makes its two slab tests, as it always
    has; nothing lands in the cache for the table-less bricks."""
    rng = np.random.default_rng(1)
    data = rng.uniform(0, 1, (12, 12, 12)).astype(np.float32)
    dense = np.full((12, 12, 12), 0.9, np.float32)
    cam = orbit_camera((12, 12, 12), width=32, height=32)
    plans, slab_tests = _spy_on_launch(monkeypatch)
    for payload, tf, n_cached in (
        (data, _ramp_tf(rng.uniform(0.05, 1.0, 16)), 0),
        (data, _ramp_tf(rng.uniform(0.5, 1.0, 8)), 0),
        (dense, default_tf(), 2),  # every cell occupied: table + open box
    ):
        cache = AccelCache()
        task = BrickTask(payload, (0, 0, 0), (0, 0, 0), payload.shape, accel_key=("k",))
        del plans[:], slab_tests[:]
        (_, stats), = raycast_bricks(
            [task], payload.shape, cam, tf, RenderConfig(kernel="numpy"), cache
        )
        assert len(plans) == 1 and plans[0].lead is None and plans[0].trail is None
        assert len(slab_tests) == 2
        assert (plans[0].segments[0].skip_table is not None) == bool(n_cached)
        assert len(cache) == n_cached
        assert stats.n_positioned == stats.n_samples > 0


def _lattice_bases(plan, seg, rays, j):
    """Trilinear base cell of ordinal ``j`` of each of ``rays``, by the
    march's own arithmetic (float64 positions from float32 operands)."""
    t = plan.t0[rays] + j * F32(plan.dt)
    base = []
    for axis, n in enumerate(seg.shape):
        c = seg.base_w[axis] + t * plan.dirs[rays, axis]
        c = np.clip(c, F32(0.0), F32(n - 1))
        base.append(np.minimum(c.astype(np.int32), n - 2))
    return tuple(base)


def assert_trim_is_conservative(plan) -> int:
    """Every sample the skip table passes has its ordinal inside its
    ray's ``[lead, trail)``; returns how many samples the trim elides."""
    assert (0 <= plan.lead).all() and (plan.trail <= plan.counts).all()
    elided = 0
    for seg in plan.segments:
        rays = np.arange(seg.ray_lo, seg.ray_hi)
        table = (
            np.ones(seg.shape, bool)
            if seg.skip_table is None
            else seg.skip_table.reshape(seg.shape)
        )
        for j in range(int(plan.counts[rays].max())):
            owned = plan.counts[rays] > j
            passes = owned & table[_lattice_bases(plan, seg, rays, np.int32(j))]
            inside = (plan.lead[rays] <= j) & (j < plan.trail[rays])
            assert not (passes & ~inside).any(), j
            elided += int((owned & ~inside).sum())
    return elided


def trimmed_launches():
    """``(shape, camera, tasks)`` of launches the trim bites on: a blob,
    a hollow shell and cells on a payload face; seen from outside, along
    an axis (parallel rays) and from inside; whole and as a fused launch
    of ghost-padded bricks."""
    rng = np.random.default_rng(17)
    blob = np.zeros((24, 24, 24), np.float32)
    blob[4:12, 6:14, 8:20] = rng.uniform(0.2, 1.0, (8, 8, 12)).astype(F32)
    shell = rng.uniform(0.3, 1.0, (20, 20, 20)).astype(F32)
    shell[3:-3, 3:-3, 3:-3] = 0.0
    face = np.zeros((16, 18, 14), np.float32)
    face[:2, 4:9, 5:11] = 0.8
    face[6:9, 16:, 2:5] = 0.6
    for data in (blob, shell, face):
        shape = data.shape
        inside = tuple(s * 0.45 for s in shape)
        grid = BrickGrid(shape, 9, ghost=1)
        vol = Volume(data)
        for cam in (
            orbit_camera(shape, azimuth_deg=52, elevation_deg=-33, width=32, height=32),
            orbit_camera(shape, azimuth_deg=90, elevation_deg=0, width=21, height=21),
            Camera(eye=inside, center=tuple(s / 2.0 for s in shape),
                   fov_y=math.radians(90.0), width=24, height=24),
        ):
            yield shape, cam, [BrickTask(data, (0, 0, 0), (0, 0, 0), shape)]
            yield shape, cam, [
                BrickTask(grid.extract(vol, b), b.data_lo, b.lo, b.hi) for b in grid
            ]


def test_trim_is_conservative_per_sample(monkeypatch):
    """Checked directly against the march's own position arithmetic."""
    plans, _ = _spy_on_launch(monkeypatch)
    elided = 0
    for shape, cam, tasks in trimmed_launches():
        for dt in (0.6, 1.3):
            del plans[:]
            raycast_bricks(
                tasks, shape, cam, default_tf(), RenderConfig(dt=dt, kernel="numpy")
            )
            for plan in plans:
                if plan.lead is not None:
                    elided += assert_trim_is_conservative(plan)
    assert elided > 50_000  # the trim actually removed a lot


# -- what the trim costs ------------------------------------------------------
def test_trim_is_one_slab_test_and_only_where_a_box_has_a_finite_face(monkeypatch):
    """Two launch-wide slab tests set a launch up; the trim adds a third
    over the active rays — unless no brick has anything to trim (the
    dense benchmark scene pays nothing)."""
    plans, slab_tests = _spy_on_launch(monkeypatch)

    def launch(name, n, **kw):
        vol = make_dataset(name, (n,) * 3)
        grid = BrickGrid(vol.shape, n // 2, ghost=1)
        tasks = [BrickTask(grid.extract(vol, b), b.data_lo, b.lo, b.hi) for b in grid]
        cam = orbit_camera(vol.shape, width=64, height=64)
        del plans[:], slab_tests[:]
        out = raycast_bricks(tasks, vol.shape, cam, kw.pop("tf"), RenderConfig(**kw))
        return sum(s.n_rays for _, s in out), sum(s.n_active_rays for _, s in out)

    n_rays, n_active = launch("skull", 32, tf=default_tf(), dt=0.75, kernel="numpy")
    assert slab_tests == [n_rays, n_rays, n_active]
    assert [p.lead is not None for p in plans] == [True]
    # the dense benchmark scene: translucent everywhere, nothing to trim
    n_rays, _ = launch(
        "supernova", 32, tf=grayscale_tf(max_alpha=0.3), dt=1.0, ert_alpha=1.0,
        kernel="numpy",
    )
    assert slab_tests == [n_rays, n_rays]
    assert [p.lead for p in plans] == [None]
    # and accel="off" never builds a structure to trim with
    n_rays, _ = launch("skull", 32, tf=default_tf(), dt=0.75, accel="off", kernel="numpy")
    assert slab_tests == [n_rays, n_rays] and plans[0].lead is None


def test_occupied_box_is_cached_with_its_table_and_invalidated_with_it(monkeypatch):
    """Second frame: table and box come from the ``AccelCache``, nothing
    is rebuilt; an in-place edit + ``invalidate_volume`` or an edited
    transfer function re-derives both."""
    built = []
    build = raycast._occupied_box

    def counted(table, shape):
        built.append(shape)
        return build(table, shape)

    monkeypatch.setattr(raycast, "_occupied_box", counted)
    vol = make_dataset("skull", (24,) * 3)
    cam = orbit_camera(vol.shape, azimuth_deg=40.0, width=48, height=48)
    cache = AccelCache()
    grid = BrickGrid(vol.shape, 12, ghost=1)

    def frame(tf):
        key = (volume_token(vol), tf.version)
        tasks = [
            BrickTask(grid.extract(vol, b), b.data_lo, b.lo, b.hi,
                      accel_key=key + (b.id,))
            for b in grid
        ]
        return raycast_bricks(
            tasks, vol.shape, cam, tf, RenderConfig(dt=0.75, kernel="numpy"), cache
        )

    tf = default_tf()
    cold = frame(tf)
    n_bricks = len(built)
    assert n_bricks == len(list(grid)) and len(cache) == 2 * n_bricks
    boxes = [k for k in cache._entries if k[0] == "box"]
    assert len(boxes) == n_bricks
    misses = cache.misses
    warm = frame(tf)
    assert len(built) == n_bricks and cache.misses == misses  # all served
    for (f0, s0), (f1, s1) in zip(cold, warm):
        assert f0.tobytes() == f1.tobytes() and s0 == s1
        assert s0.n_positioned == s1.n_positioned
    # a lost box (LRU eviction) is rebuilt from the cached table alone
    cache.pop(boxes[0])
    frame(tf)
    assert len(built) == n_bricks + 1 and boxes[0] in cache._entries
    # in-place edit into a previously empty corner
    positioned = sum(s.n_positioned for _, s in warm)
    vol.data[:6, :6, :6] = float(vol.data.max())
    invalidate_volume(vol)
    edited = frame(tf)
    assert len(built) == 2 * n_bricks + 1
    assert sum(s.n_positioned for _, s in edited) > positioned
    # a transfer-function edit
    frame(grayscale_tf())
    assert len(built) == 3 * n_bricks + 1 or _alpha_zero_threshold(grayscale_tf()) < 0


# -- end-to-end: renderer + executors ----------------------------------------
def positioned_samples(stats) -> int:
    """Samples a frame's marches positioned, wherever it was mapped."""
    return stats.telemetry["metrics"]["map.positioned_samples"]["value"]


def _render_pair(executor_kwargs, accel):
    vol = make_dataset("skull", (24,) * 3)
    cam = orbit_camera(vol.shape, azimuth_deg=40.0, width=48, height=48)
    with MapReduceVolumeRenderer(
        volume=vol, cluster=2, render_config=RenderConfig(dt=0.75),
        accel=accel, **executor_kwargs,
    ) as r:
        res = r.render(cam, mode="exec")
    assert (positioned_samples(res.stats) < res.stats.n_samples) == (accel != "off")
    return res.image, res.stats.as_dict()


def test_renderer_grid_matches_off_end_to_end():
    img_off, stats_off = _render_pair({}, "off")
    img_tab, stats_tab = _render_pair({}, "table")
    img_grid, stats_grid = _render_pair({}, "grid")
    assert np.array_equal(img_off, img_grid)
    assert np.array_equal(img_off, img_tab)
    assert stats_off == stats_grid == stats_tab


def test_renderer_grid_matches_off_pool_smoke():
    img_off, stats_off = _render_pair({}, "off")
    img_pool, stats_pool = _render_pair(
        dict(executor="pool", workers=2, reduce_mode="worker"), "grid"
    )
    assert np.array_equal(img_off, img_pool)
    assert stats_off == stats_pool


@pytest.mark.slow
@pytest.mark.parametrize("reduce_mode", ["parent", "worker"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_renderer_grid_matches_off_pool_matrix(reduce_mode, workers):
    img_off, stats_off = _render_pair({}, "off")
    vol = make_dataset("skull", (24,) * 3)
    cam = orbit_camera(vol.shape, azimuth_deg=40.0, width=48, height=48)
    with MapReduceVolumeRenderer(
        volume=vol, cluster=2, render_config=RenderConfig(dt=0.75),
        accel="table", executor="pool", workers=workers, reduce_mode=reduce_mode,
    ) as r:
        first = r.render(cam, mode="exec")
        # second frame hits the workers' warm caches
        second = r.render(cam, mode="exec")
    assert np.array_equal(img_off, first.image)
    assert np.array_equal(img_off, second.image)
    assert stats_off == first.stats.as_dict() == second.stats.as_dict()
    positioned = positioned_samples(first.stats)
    assert 0 < positioned < first.stats.n_samples
    assert positioned_samples(second.stats) == positioned


def test_accel_off_publishes_no_grids():
    """The arena carries the chunk payloads and the transfer function,
    whatever the accel mode: no empty-space structure is shipped (every
    worker builds its own), and flipping the mode republishes nothing."""
    vol = make_dataset("skull", (24,) * 3)
    cam = orbit_camera(vol.shape, azimuth_deg=40.0, width=48, height=48)
    with MapReduceVolumeRenderer(
        volume=vol, cluster=2, render_config=RenderConfig(dt=0.75),
        accel="off", executor="pool", workers=2,
    ) as r:
        r.render(cam, mode="exec")
        pool = r._exec_instance
        assert isinstance(pool, SharedMemoryPoolExecutor)
        arena_keys = set(pool._state["arena"].spec.keys())
        assert arena_keys == {0, 1, 2, 3, TF_ARENA_KEY}  # 2 GPUs × 2 bricks
        fp = pool._arena_fingerprint
        r.render_config = RenderConfig(
            dt=0.75, accel="table", kernel=r.render_config.kernel
        )
        r.render(cam, mode="exec")
        assert pool._arena_fingerprint == fp
        assert set(pool._state["arena"].spec.keys()) == arena_keys


def test_render_config_validation():
    with pytest.raises(ValueError):
        RenderConfig(accel="turbo")
    with pytest.raises(TypeError):
        RenderConfig(macro_cell_size=8)
    assert RenderConfig().accel == "table"
    assert RenderConfig(accel="grid") == RenderConfig(accel="table")


def test_cli_accel_knobs(tmp_path, capsys):
    from repro.cli import main

    outs = {}
    for accel in ("grid", "table", "off"):
        out = tmp_path / f"{accel}.ppm"
        rc = main([
            "render", "--dataset", "skull", "--size", "16", "--gpus", "2",
            "--image", "32", "--accel", accel, "--out", str(out),
        ])
        assert rc == 0
        outs[accel] = out.read_bytes()
    assert outs["grid"] == outs["table"] == outs["off"]  # bitwise-identical pixels
    with pytest.raises(SystemExit):
        main(["render", "--macro-cell-size", "4"])
    capsys.readouterr()
