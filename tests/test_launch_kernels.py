"""The launch kernels around the march: set-up and trim in C, bitwise.

``kernels.setup`` (key and direction gather, the brick and whole-volume
slab tests, compaction, ownership intervals, first-sample ``t``) and the
trim inside ``kernels.march`` (the occupied-box slab test and the
``[lead, trail)`` ordinals) run as ``repro_setup`` / ``repro_march`` in C
whenever the process can build them.  The NumPy passes are the
reference: this suite draws brick boxes, eyes and rects — parallel rays,
an eye on a slab face, grazing rays, eyes inside a box, occupied boxes
with ∓inf faces and boxes no ray enters — and asserts that every per-ray
array the two produce is the same bytes.  It also checks that the C
path makes no NumPy pass over a launch's rays at all.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import make_dataset, orbit_camera
from repro.render import RenderConfig, default_tf, fragments, geometry
from repro.render.camera import Camera, PixelRect
from repro.render.kernels import (
    BrickSegment, MarchPlan, SetupPlan, c_backend, numpy_backend,
)
from repro.render.raycast import BrickTask, raycast_bricks
from repro.volume import BrickGrid

from marches import use_march

F32 = np.float32
INF = float("inf")
SHAPE = (12, 10, 8)
# Face coordinates the eye and the boxes share, so eyes land on slab faces.
FACES = [0.0, 2.0, 5.0, 8.0, 10.0, 12.0]
AXES = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def _box(draw, lo_max=SHAPE):
    """An integer box inside (or, drawn large, around) the volume."""
    lo = [draw(st.integers(-2, n - 1)) for n in lo_max]
    hi = [draw(st.integers(l + 1, n + 2)) for l, n in zip(lo, lo_max)]
    return lo, hi


def _occupied(draw):
    """An occupied box relative to the lattice origin: open, partly
    open, one no ray enters, or finite — a face at 0 puts the eye on it."""
    kind = draw(st.sampled_from(["none", "open", "empty", "finite"]))
    if kind == "none":
        return None
    if kind == "empty":
        return np.full((2, 3), INF, F32)
    face = st.sampled_from([-INF, -3.0, 0.0, 1.5, 4.0, INF])
    lo = [draw(face) if kind == "finite" else -INF for _ in range(3)]
    hi = [max(l, draw(face)) if kind == "finite" else INF for l in lo]
    return np.array([lo, [h if h > -INF else INF for h in hi]], F32)


@st.composite
def launches(draw):
    coord = st.one_of(st.sampled_from(FACES), st.floats(-20.0, 30.0, width=32))
    eye = tuple(draw(coord) for _ in range(3))
    if draw(st.booleans()):
        # Axis-aligned view: the centre column / row of an odd viewport
        # has a direction component exactly 0.
        axis = draw(st.sampled_from(AXES))
        # ... or, nudged off the axis, a denormal one whose reciprocal
        # overflows: 0·inf NaNs no parallel branch overwrites.
        nudge = draw(st.sampled_from([0.0, 0.0, 5e-39, -7e-40]))
        center = tuple(e + 5.0 * a + nudge * (1 - abs(a)) for e, a in zip(eye, axis))
        up = (0.0, 1.0, 0.0) if axis[2] else (0.0, 0.0, 1.0)
    else:
        center = tuple(draw(st.floats(0.0, 12.0, width=32)) for _ in range(3))
        up = (0.0, 0.0, 1.0)
        if np.allclose(np.subtract(center, eye), 0.0) or np.allclose(
            np.cross(np.subtract(center, eye), up), 0.0
        ):
            center = tuple(c + 1.0 for c in center[:2]) + (center[2],)
    size = draw(st.sampled_from([1, 3, 5, 7, 9]))
    camera = Camera(
        eye=eye, center=center, up=up, fov_y=math.radians(draw(st.sampled_from([20.0, 60.0, 120.0]))),
        width=size, height=draw(st.sampled_from([1, 5, 7])),
    )
    n = draw(st.integers(1, 4))
    boxes, rects = [], []
    for _ in range(n):
        lo, hi = _box(draw)
        boxes.append((lo, hi))
        if draw(st.booleans()):
            rects.append(camera.box_rect(lo, hi, pad_to_block=draw(st.booleans())))
        else:
            x0 = draw(st.integers(0, camera.width))
            y0 = draw(st.integers(0, camera.height))
            rects.append(PixelRect(
                x0, y0, draw(st.integers(x0, camera.width)), draw(st.integers(y0, camera.height))
            ))
    occupied = [_occupied(draw) for _ in range(n)]
    dt = draw(st.sampled_from([0.3, 0.5, 0.75, 1.0, 1.45]))
    rects = np.array([(r.x0, r.y0, r.x1, r.y1) for r in rects], np.int64).reshape(-1, 4)
    return camera, rects, np.array(boxes, F32).reshape(-1, 2, 3), occupied, dt


def _march_plan(rays, occupied, camera):
    """A launch plan over ``rays`` whose segments carry the drawn boxes
    (a tiny clamped payload: only the trim is under test)."""
    payload = np.zeros((3, 3, 3), F32)
    base_w = (np.asarray(camera.eye) - 0.5).astype(F32)
    cuts = rays.cuts.tolist()
    segments = tuple(
        BrickSegment(
            data=payload, flat=payload.ravel(), shape=payload.shape, need_clamp=True,
            base_w=base_w, skip_table=None, box=None if box is None else box + base_w,
            ray_lo=lo, ray_hi=hi,
        )
        for box, lo, hi in zip(occupied, cuts, cuts[1:])
        if hi > lo
    )
    n = len(rays.counts)
    return MarchPlan(
        segments=segments, counts=rays.counts, t0=rays.t0, dirs=rays.dirs, dt=0.75,
        use_ert=False, ert_alpha=1.0, u_thr=-1.0, lead=None, trail=None,
        tf=default_tf(), shading=False, acc_rgb=np.zeros((n, 3), F32),
        acc_a=np.zeros(n, F32), term=np.zeros(n, bool), keys=rays.keys,
        active=rays.active, n_rays=int(rays.ray_cuts[-1]), emit_placeholders=False,
    )


#: A NaN that survives a slab test: the ray's y direction is denormal, so
#: its reciprocal overflows, and the occupied box's y face sits on the
#: lattice origin, so 0·inf is NaN.  np.maximum / np.minimum carry it into
#: the entry and the exit, and np.fmin / np.fmax then keep the ray whole.
NAN_TRIM = (
    Camera(eye=(20.0, 1e-30, 4.0), center=(15.0, 1e-30 + 5e-39, 4.0), width=1, height=1),
    np.array([[0, 0, 1, 1]]),
    np.array([[[0, 0, 0], [12, 10, 8]]], F32),
    [np.array([[-3.0, 0.0, -INF], [1.5, 4.0, INF]], F32)],
    0.75,
)


@settings(max_examples=150, deadline=None)
@given(launches())
@example(NAN_TRIM)
def test_c_setup_and_trim_are_bytes_of_the_numpy_passes(launch):
    camera, rects, cores, occupied, dt = launch
    lib, reason = c_backend.load()
    assert lib is not None, reason
    plan = SetupPlan(camera, rects, cores, SHAPE, dt, shading=False, float32=True)
    want = numpy_backend.setup(plan)
    got = lib.setup(plan)
    for name in ("ray_cuts", "active", "keys", "dirs", "kf", "counts", "t0", "cuts", "owned"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    if len(want.counts) == 0:
        return
    ref, c = _march_plan(want, occupied, camera), _march_plan(got, occupied, camera)
    ref_out = numpy_backend.launch(ref)
    c_out = lib.launch(c)
    if all(box is None for box in occupied):
        assert ref.lead is None and c.lead is None
    for name in ("lead", "trail"):
        a, b = getattr(c, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for a, b in zip(c_out, ref_out):
        assert a.tobytes() == b.tobytes()


def test_the_drawn_launches_reach_the_edge_cases():
    """The property's strategy is not vacuous: it makes parallel rays,
    0·inf slab products (eye on a face of a box, direction 0 there),
    NaNs that survive the slab test (a denormal direction), eyes inside
    a box, rays that miss, and trims that cut."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(launches())
    @example(NAN_TRIM)
    def survey(launch):
        camera, rects, cores, occupied, dt = launch
        rays = numpy_backend.setup(SetupPlan(camera, rects, cores, SHAPE, dt, False, True))
        dirs = camera._dirs32()
        eye = np.asarray(camera.eye, F32)
        if (dirs == 0.0).any():
            seen.add("parallel")
            rel = cores - eye
            if ((rel == 0.0) & (dirs == 0.0).any(axis=0)).any():
                seen.add("eye on a face")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = F32(1.0) / dirs
            for lo, hi in cores - eye:
                if np.isnan(geometry.box_intersect_f32(lo, hi, dirs, inv)[0]).any():
                    seen.add("NaN slab")
        if ((cores[:, 0] < eye) & (eye < cores[:, 1])).all(axis=1).any():
            seen.add("inside")
        if len(rays.counts) < rays.ray_cuts[-1]:
            seen.add("missed")
        if len(rays.counts) and any(b is not None and np.isfinite(b).any() for b in occupied):
            plan = _march_plan(rays, occupied, camera)
            numpy_backend.launch(plan)
            if plan.lead is not None and ((plan.lead > 0) | (plan.trail < plan.counts)).any():
                seen.add("trimmed")

    survey()
    assert seen == {"parallel", "eye on a face", "NaN slab", "inside", "missed", "trimmed"}


@pytest.mark.parametrize("emit_placeholders", [False, True])
def test_the_c_path_makes_no_numpy_pass_over_a_launchs_rays(monkeypatch, emit_placeholders):
    """A fused, trimmed launch of the sparse benchmark scene's bricks
    renders bitwise under C with every per-ray NumPy pass of the set-up,
    trim and emit made to raise."""
    vol = make_dataset("skull", (32,) * 3)
    grid = BrickGrid(vol.shape, 16, ghost=1)
    tasks = [BrickTask(grid.extract(vol, b), b.data_lo, b.lo, b.hi) for b in grid]
    cam = orbit_camera(vol.shape, azimuth_deg=40, elevation_deg=25, width=64, height=64)
    config = RenderConfig(dt=0.75, emit_placeholders=emit_placeholders)
    with use_march("numpy"):
        want = raycast_bricks(tasks, vol.shape, cam, default_tf(), config)

    def forbidden(*args, **kwargs):
        raise AssertionError("a NumPy pass over the launch's rays")

    for module, name in (
        (geometry, "box_intersect_f32"), (numpy_backend, "box_intersect_f32"),
        (numpy_backend, "_sample_intervals"), (Camera, "footprint_rays_f32"),
        (fragments, "make_fragments"), (numpy_backend, "make_fragments"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    with use_march("c"):
        got = raycast_bricks(tasks, vol.shape, cam, default_tf(), config)
    assert any(s.n_positioned < s.n_samples for _, s in got)  # the trim bit
    for (frags, stats), (ref, ref_stats) in zip(got, want):
        assert stats.march == "c" or not stats.n_active_rays
        assert frags.tobytes() == ref.tobytes() and stats == ref_stats
        assert stats.n_positioned == ref_stats.n_positioned
