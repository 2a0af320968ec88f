"""The fused multi-brick launch: grouping map tasks cannot change a bit.

The map stage marches all bricks of a launch in one vectorised kernel
invocation (``raycast_bricks`` / ``map_chunks_to_runs``) and the pool
worker drains the ``map`` messages already queued for a frame into such
launches.  How chunks end up grouped depends on the ray budget and, in
the pool, on queue timing — so the contract this suite pins is that
**any** cut of a chunk list into consecutive launches yields the bytes,
``MapStats`` and ``MapWork`` of mapping every chunk on its own — and
that it does so whichever march (C or NumPy) cast either side.

Also here: what the occupied-box trim saves on the benchmark's bricks,
the worker's batch drain and a mid-batch fault replay, the per-launch
``map:`` span and the launch gauges, and the float widths the march
actually computes in.
"""

import math
import queue

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MapReduceVolumeRenderer, make_dataset, orbit_camera
from repro.core.chunk import Chunk
from repro.core.executors import (
    make_map_work,
    map_chunk_to_runs,
    map_chunks_to_runs,
    map_telemetry,
)
from repro.core.job import MapReduceSpec
from repro.core.keyvalue import KVSpec
from repro.core.partition import RoundRobinPartitioner
from repro.observability import disable_tracing, enable_tracing
from repro.parallel import WorkerMesh
from repro.parallel.worker import _drain_maps, _next_message
from repro.pipeline.mappers import RayCastMapper
from repro.pipeline.reducers import CompositeReducer
from repro.render import RenderConfig, default_tf, grayscale_tf
from repro.render.camera import Camera
from repro.render.accel import AccelCache
from repro.render.fragments import FRAGMENT_DTYPE
from repro.render.raycast import (
    LAUNCH_RAY_BUDGET,
    BrickTask,
    _trilinear_gather,
    _trilinear_prep,
    cut_launches,
    raycast_brick,
    raycast_bricks,
)
from repro.volume import BrickGrid, Volume

from marches import MARCHES, use_march

F32 = np.float32


def _blob_volume(n: int = 24) -> Volume:
    """Dense core, empty rim: rim bricks have rays but nothing visible
    (and too few samples to earn a corner-max table)."""
    rng = np.random.default_rng(3)
    data = np.zeros((n, n, n), np.float32)
    lo, hi = n // 4, n - n // 4
    data[lo:hi, lo:hi, lo:hi] = rng.uniform(0.1, 1.0, (hi - lo,) * 3)
    return Volume(data)


VOLUME = _blob_volume()
#: 3×3×3 bricks: the centre one has a full ghost shell (no clamp), the
#: other 26 touch the volume boundary (clamp) — mixed in every launch.
GRID = BrickGrid(VOLUME.shape, 8, ghost=1)
BRICKS = list(GRID)


def _tasks(tag=None):
    return [
        BrickTask(
            GRID.extract(VOLUME, b),
            b.data_lo,
            b.lo,
            b.hi,
            accel_key=None if tag is None else (tag, b.id),
        )
        for b in BRICKS
    ]


def _chunks():
    return [
        Chunk(id=b.id, nbytes=b.nbytes, data=GRID.extract(VOLUME, b), meta=b)
        for b in BRICKS
    ]


def _spec(camera, tf, config, n_reducers=3):
    return MapReduceSpec(
        mapper=RayCastMapper(camera, tf, VOLUME.shape, config),
        reducer=CompositeReducer(),
        partitioner=RoundRobinPartitioner(n_reducers),
        kv=KVSpec(FRAGMENT_DTYPE, key_field="pixel"),
        max_key=camera.pixel_count - 1,
    )


def _camera(azimuth, elevation, look=(0, 0, 0), fov=45.0) -> Camera:
    """An orbit camera that may look past the volume centre: a narrow,
    off-centre view leaves some bricks off-screen (empty rects) and some
    with footprints none of whose rays hit them."""
    orbit = orbit_camera(
        VOLUME.shape, azimuth_deg=azimuth, elevation_deg=elevation,
        distance_factor=2.0, width=40, height=40,
    )
    return Camera(
        eye=orbit.eye,
        center=tuple(c + o for c, o in zip(orbit.center, look)),
        fov_y=math.radians(fov),
        width=40,
        height=40,
    )


def _work_fields(work) -> dict:
    """A MapWork as plain comparable values (its routed counts are an
    ndarray, which dataclass equality cannot compare)."""
    fields = dict(vars(work))
    fields["pairs_to_reducer"] = fields["pairs_to_reducer"].tolist()
    return fields


def _counters(work: dict) -> dict:
    """A chunk's work counters without the provenance of which march
    ran (the two sides of a comparison may use different ones)."""
    return {k: v for k, v in work.items() if k not in ("march", "march_reason")}


def _cut(n: int, points) -> list:
    """Consecutive ``range``s of ``0..n`` cut at ``points``."""
    edges = [0] + sorted(set(points)) + [n]
    return [range(a, b) for a, b in zip(edges, edges[1:]) if b > a]


@st.composite
def scenarios(draw):
    config = RenderConfig(
        dt=draw(st.sampled_from([0.5, 0.75, 1.0])),
        ert_alpha=draw(st.sampled_from([0.6, 0.98, 1.0])),
        emit_placeholders=draw(st.booleans()),
        shading=draw(st.booleans()),
        accel=draw(st.sampled_from(["table", "off"])),
    )
    camera = _camera(
        draw(st.floats(0.0, 360.0)),
        draw(st.floats(-60.0, 60.0)),
        draw(st.sampled_from([(0, 0, 0), (0, 6, 4), (5, -7, 0)])),
        draw(st.sampled_from([20.0, 45.0])),
    )
    tf = draw(st.sampled_from([default_tf(), grayscale_tf(max_alpha=0.4)]))
    cuts = draw(st.lists(st.integers(1, len(BRICKS) - 1), max_size=8))
    # which march casts the bricks alone, and which the launches
    marches = (draw(st.sampled_from(MARCHES)), draw(st.sampled_from(MARCHES)))
    return config, camera, tf, _cut(len(BRICKS), cuts), marches


@settings(max_examples=30, deadline=None)
@given(scenarios())
def test_any_cut_into_launches_is_bitwise_per_chunk_mapping(scenario):
    config, camera, tf, launches, (march_alone, march_fused) = scenario
    # kernel level: fragments and MapStats
    cache = AccelCache()
    tasks = _tasks(tag="fused")
    with use_march(march_alone):
        alone = [
            raycast_bricks([t], VOLUME.shape, camera, tf, config, cache)[0]
            for t in tasks
        ]
    kinds = {(s.n_rays > 0, s.n_active_rays > 0) for _, s in alone}
    for launch in launches:
        with use_march(march_fused):
            together = raycast_bricks(
                [tasks[i] for i in launch], VOLUME.shape, camera, tf, config, cache
            )
        for i, (frags, stats) in zip(launch, together):
            assert frags.tobytes() == alone[i][0].tobytes()
            assert stats == alone[i][1]
            assert stats.n_positioned == alone[i][1].n_positioned
            if stats.n_active_rays:
                # C runs every unshaded launch, whatever its block size
                want = "numpy" if config.shading else march_fused
                assert stats.march == want

    # executor level: runs, counters and MapWork
    spec = _spec(camera, tf, config)
    chunks = _chunks()
    with use_march(march_alone):
        single = [map_chunk_to_runs(spec, c) for c in chunks]
    for launch in launches:
        with use_march(march_fused):
            batch = map_chunks_to_runs(spec, [chunks[i] for i in launch])
        assert [r[3]["launches"] for r in batch] == [1] + [0] * (len(launch) - 1)
        for i, got in zip(launch, batch):
            runs, emitted, kept, work, routed = got
            ref_runs, ref_emitted, ref_kept, ref_work, ref_routed = single[i]
            assert [r.tobytes() for r in runs] == [r.tobytes() for r in ref_runs]
            assert (emitted, kept) == (ref_emitted, ref_kept)
            assert _counters(dict(work, launches=1)) == _counters(ref_work)
            assert np.array_equal(routed, ref_routed)
            got_work = make_map_work(chunks[i], 0, emitted, work, routed)
            ref = make_map_work(chunks[i], 0, ref_emitted, ref_work, ref_routed)
            assert _work_fields(got_work) == _work_fields(ref)
    # every scenario mixes marching bricks with at least one idle kind
    assert (True, True) in kinds


def test_scenario_volume_covers_the_brick_kinds():
    """The property's fixture really contains what it claims: clamped
    and unclamped bricks, table-less bricks, empty rects, rayless
    footprints (otherwise the property would pass vacuously)."""
    config = RenderConfig(dt=0.75)
    camera = _camera(0.0, 20.0, look=(0, 6, 4), fov=20.0)
    cache = AccelCache()
    tasks = _tasks(tag="kinds")
    out = raycast_bricks(tasks, VOLUME.shape, camera, default_tf(), config, cache)
    stats = [s for _, s in out]
    assert any(s.n_rays == 0 for s in stats)  # off-screen brick
    assert any(s.n_rays > 0 and s.n_active_rays == 0 for s in stats)
    assert any(s.n_active_rays > 0 for s in stats)
    tabled = [cache.get(t.accel_key) is not None for t in tasks]
    assert any(tabled) and not all(tabled)
    ghosts = [
        all(dl == lo - 1 for dl, lo in zip(b.data_lo, b.lo))
        and all(dh == hi + 1 for dh, hi in zip(b.data_hi, b.hi))
        for b in BRICKS
    ]
    assert any(ghosts) and not all(ghosts)


def _spy_on_marches(monkeypatch) -> list:
    """Record every launch's ``MarchPlan``."""
    from repro.render import kernels

    plans = []

    def march(plan, run=kernels.march):
        plans.append(plan)
        return run(plan)

    monkeypatch.setattr(kernels, "march", march)
    return plans


def _assert_plan_is_well_formed(plan):
    """Segments hold ≥ 1 ray each and tile the plan's rays in order."""
    edges = [(s.ray_lo, s.ray_hi) for s in plan.segments]
    assert all(hi > lo for lo, hi in edges)
    assert edges[0][0] == 0 and edges[-1][1] == len(plan.counts)
    assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
    n = len(plan.counts)
    assert plan.t0.shape == (n,) and plan.dirs.shape == (n, 3)
    assert plan.acc_a.shape == (n,) and plan.acc_rgb.shape == (n, 3)


@pytest.mark.parametrize("emit_placeholders", [False, True])
def test_idle_bricks_in_the_middle_of_a_launch(monkeypatch, emit_placeholders):
    """An off-screen brick (empty footprint) and a brick whose footprint
    holds no active ray sit *between* marching bricks: the launch-wide
    set-up hands the kernel one plan whose segments skip them, and each
    brick still gets exactly its launch-of-one fragments and counters."""
    config = RenderConfig(
        dt=0.75, emit_placeholders=emit_placeholders
    )
    camera = _camera(0.0, 20.0, look=(0, 6, 4), fov=20.0)
    tasks = _tasks()
    alone = [
        raycast_bricks([t], VOLUME.shape, camera, default_tf(), config)[0]
        for t in tasks
    ]
    marching = [i for i, (_, s) in enumerate(alone) if s.n_active_rays]
    offscreen = [i for i, (_, s) in enumerate(alone) if s.n_rays == 0]
    rayless = [
        i for i, (_, s) in enumerate(alone) if s.n_rays and not s.n_active_rays
    ]
    assert len(marching) >= 3 and offscreen and rayless
    launch = [marching[0], offscreen[0], marching[1], rayless[0], offscreen[-1], marching[2]]
    plans = _spy_on_marches(monkeypatch)
    together = raycast_bricks(
        [tasks[i] for i in launch], VOLUME.shape, camera, default_tf(), config
    )
    assert len(plans) == 1 and len(plans[0].segments) == 3
    _assert_plan_is_well_formed(plans[0])
    assert len(plans[0].counts) == sum(alone[i][1].n_active_rays for i in launch)
    for i, (frags, stats) in zip(launch, together):
        assert frags.tobytes() == alone[i][0].tobytes()
        assert stats == alone[i][1]
    if emit_placeholders:
        assert [len(f) for f, _ in together] == [alone[i][1].n_rays for i in launch]
    # a launch of idle bricks only never reaches the kernel
    del plans[:]
    idle = raycast_bricks(
        [tasks[i] for i in offscreen + rayless], VOLUME.shape, camera,
        default_tf(), config,
    )
    assert plans == [] and all(s.n_samples == 0 for _, s in idle)


def test_lone_marchers_share_a_launch_with_fused_bricks(monkeypatch):
    """A payload with a size-1 axis marches alone on the NumPy march,
    from its slice of the launch's rays, between stretches of fused
    bricks — trimmed and untrimmed ones side by side, on slices of one
    launch-wide trim; C marches every segment in its one call — and
    nobody's bytes or counters can tell."""
    from repro.render.kernels import numpy_backend

    config = RenderConfig(dt=0.5)
    camera = _camera(35.0, 25.0)
    tf = default_tf()
    cache = AccelCache()
    tasks = _tasks(tag="lone")
    # a one-voxel-thick slab of the volume, ghostless: payload (24, 24, 1)
    slab = BrickTask(
        np.ascontiguousarray(VOLUME.data[:, :, 11:12]), (0, 0, 11), (0, 0, 11), (24, 24, 12)
    )
    tasks = tasks[:14] + [slab] + tasks[14:]
    alone = [
        raycast_bricks([t], VOLUME.shape, camera, tf, config, cache)[0] for t in tasks
    ]
    stretches = []

    def fold(plan, run=numpy_backend.march):
        stretches.append(plan)
        return run(plan)

    monkeypatch.setattr(numpy_backend, "march", fold)
    plans = _spy_on_marches(monkeypatch)
    for march in MARCHES:
        del plans[:], stretches[:]
        with use_march(march):
            together = raycast_bricks(tasks, VOLUME.shape, camera, tf, config, cache)
        assert len(plans) == 1 and len(plans[0].lead) == len(plans[0].counts)
        _assert_plan_is_well_formed(plans[0])
        if march == "c":
            assert stretches == []
        else:
            for plan in stretches:
                _assert_plan_is_well_formed(plan)
            assert [len(p.segments) > 1 for p in stretches] == [True, False, True]
            assert min(stretches[1].segments[0].shape) == 1  # the slab
            assert all(
                p.lead is not None and len(p.lead) == len(p.counts) for p in stretches
            )
        assert len(plans[0].counts) == sum(s.n_active_rays for _, s in alone)
        trimmed = [s.n_positioned < s.n_samples for _, s in alone if s.n_samples]
        assert any(trimmed) and not all(trimmed)
        for (frags, stats), (ref, ref_stats) in zip(together, alone):
            assert frags.tobytes() == ref.tobytes()
            assert stats == ref_stats and stats.n_positioned == ref_stats.n_positioned


def test_launches_are_cut_at_the_ray_budget():
    assert cut_launches([]) == []
    assert cut_launches([5, 5, 5], budget=10) == [2, 1]
    assert cut_launches([50, 1, 1], budget=10) == [1, 2]  # oversized: alone
    assert cut_launches([4, 4, 4, 4], budget=8) == [2, 2]
    assert sum(cut_launches([LAUNCH_RAY_BUDGET // 3] * 7)) == 7
    # the mapper cuts by padded footprint rays
    camera = orbit_camera(VOLUME.shape, width=40, height=40)
    mapper = RayCastMapper(camera, default_tf(), VOLUME.shape, RenderConfig())
    sizes = mapper.launch_sizes(_chunks())
    assert sum(sizes) == len(BRICKS) and max(sizes) > 1


# -- what the trim saves ------------------------------------------------------
def _positioned_vs_owned(tasks, shape, camera, tf, config):
    """(owned, positioned with the trim, positioned without) samples of
    one launch, after checking the two cast to the same bytes."""
    cache = AccelCache()
    for _ in range(2):  # second pass: structures cached
        on = raycast_bricks(tasks, shape, camera, tf, config, cache)
    off = raycast_bricks(
        tasks, shape, camera, tf, RenderConfig(dt=config.dt, accel="off")
    )
    for (f0, s0), (f1, s1) in zip(on, off):
        assert f0.tobytes() == f1.tobytes() and s0 == s1
    owned = sum(s.n_samples for _, s in off)
    assert owned == sum(s.n_positioned for _, s in off)
    return owned, sum(s.n_positioned for _, s in on)


def test_trim_halves_the_positioned_samples_on_the_benchmark_bricks():
    """skull 64³ as 16 bricks at 128² (the end-to-end sparse scene): the
    march positions about half of what it owns, and charges all of it."""
    from repro.volume import bricks_for_gpu_count

    vol = make_dataset("skull", (64, 64, 64))
    grid = bricks_for_gpu_count(vol.shape, 8, 2)
    tasks = [
        BrickTask(grid.extract(vol, b), b.data_lo, b.lo, b.hi, accel_key=("g", b.id))
        for b in grid
    ]
    camera = orbit_camera(vol.shape, azimuth_deg=30, elevation_deg=20, width=128, height=128)
    config = RenderConfig(dt=0.75)
    owned, positioned = _positioned_vs_owned(
        tasks, vol.shape, camera, default_tf(), config
    )
    assert 0.3 * owned < positioned < 0.6 * owned


def test_trim_positions_little_more_than_the_blob_of_the_sparse_microbench_brick():
    """One 32³ brick, 5 % filled, 11 k rays (the sparse brick the
    ``render/raycast.py`` docstring times): the 12³ blob's box is all
    the march positions."""
    data = np.zeros((32, 32, 32), np.float32)
    data[10:22, 10:22, 10:22] = np.random.default_rng(11).uniform(
        0.2, 1.0, (12, 12, 12)
    )
    camera = orbit_camera(data.shape, width=128, height=128, distance_factor=2.2)
    config = RenderConfig(dt=1.0)
    tasks = [BrickTask(data, (0, 0, 0), (0, 0, 0), data.shape, accel_key=("m",))]
    owned, positioned = _positioned_vs_owned(
        tasks, data.shape, camera, default_tf(), config
    )
    assert positioned < 0.2 * owned


# -- observability ------------------------------------------------------------
def _sparse_renderer(**kw):
    vol = make_dataset("skull", (32, 32, 32))
    renderer = MapReduceVolumeRenderer(
        vol, 4, tf=default_tf(), render_config=RenderConfig(dt=0.75), **kw
    )
    camera = orbit_camera(vol.shape, azimuth_deg=40, elevation_deg=20, width=64, height=64)
    return renderer, camera


def _map_spans(tracer):
    return [
        (worker, ev)
        for worker, _gen, ev in tracer.all_events()
        if ev[0].split(":", 1)[0] == "map"
    ]


def test_one_map_span_per_launch_and_launch_gauges_inprocess():
    renderer, camera = _sparse_renderer()
    enable_tracing()
    try:
        result = renderer.render(camera, bricks_per_gpu=2)
    finally:
        tracer = disable_tracing()
    spans = _map_spans(tracer)
    covered = [ci for _, ev in spans for ci in ev[4]["chunks"]]
    assert covered == list(range(8))  # every chunk in exactly one launch
    tel = result.stats.telemetry["metrics"]
    assert tel["map.launches"] == {"kind": "gauge", "value": len(spans)}
    assert 0 < tel["map.positioned_samples"]["value"] < result.stats.n_samples
    assert len(spans) < 8  # the launches really are fused
    flat = result.stats.as_dict()
    assert not any("launch" in k or "positioned" in k for k in flat)
    assert "telemetry" in result.stats.as_dict(include_telemetry=True)


def test_one_map_span_per_launch_and_launch_gauges_pool():
    renderer, camera = _sparse_renderer(executor="pool", workers=2)
    enable_tracing()
    try:
        with renderer:
            result = renderer.render(camera, bricks_per_gpu=2)
    finally:
        tracer = disable_tracing()
    spans = _map_spans(tracer)
    assert all(worker is not None for worker, _ in spans)
    assert all(ev[4]["frame"] == 1 for _, ev in spans)
    covered = sorted(ci for _, ev in spans for ci in ev[4]["chunks"])
    assert covered == list(range(8))
    # non-nested: a worker's map spans never overlap
    for w in {worker for worker, _ in spans}:
        ivals = sorted((ev[2], ev[2] + ev[3]) for worker, ev in spans if worker == w)
        assert all(a[1] <= b[0] for a, b in zip(ivals, ivals[1:]))
    tel = result.stats.telemetry["metrics"]
    assert tel["map.launches"]["value"] == len(spans)
    assert 0 < tel["map.positioned_samples"]["value"] < result.stats.n_samples


def test_map_telemetry_sums_per_chunk_counters():
    works = [{"launches": 1, "n_positioned": 5}, {"launches": 0}, {"n_positioned": 3}]
    assert map_telemetry(works) == {"map.launches": 1, "map.positioned_samples": 8}


# -- the worker's batch drain -----------------------------------------------
def _map_msg(seq, ci):
    return ("map", seq, ci, ci, 0, False, None)


def test_drain_takes_only_consecutive_maps_of_the_same_frame():
    q = queue.Queue()
    for msg in (_map_msg(4, 1), _map_msg(4, 2), ("reduce", 3, [0]), _map_msg(4, 3)):
        q.put(msg)
    pending = []
    batch = _drain_maps(q, _map_msg(4, 0), pending)
    assert [m[2] for m in batch] == [0, 1, 2]
    assert pending == [("reduce", 3, [0])]
    # the popped message is served before anything still queued
    mesh = WorkerMesh(0, 1, edge_capacity=1 << 12, write_timeout=1.0)  # no edges
    assert _next_message(q, mesh, pending)[0] == "reduce"
    assert pending == [] and _next_message(q, mesh, pending) == _map_msg(4, 3)

    q.put(_map_msg(5, 0))  # next frame's map ends the batch too
    batch = _drain_maps(q, _map_msg(4, 9), pending)
    assert [m[2] for m in batch] == [9] and pending == [_map_msg(5, 0)]
    assert _drain_maps(queue.Queue(), _map_msg(1, 0), []) == [_map_msg(1, 0)]


@pytest.mark.parametrize("shuffle_mode", ["mesh"])
def test_map_fault_inside_a_drained_batch_replays_bitwise(shuffle_mode):
    """Frame 2's maps queue up behind frame 1 (depth 2), so worker 0
    drains them as one batch; the fault fires on a chunk in its middle."""
    vol = make_dataset("skull", (32, 32, 32))
    config = RenderConfig(dt=0.75)
    cams = [
        orbit_camera(vol.shape, azimuth_deg=az, elevation_deg=20, width=64, height=64)
        for az in (40, 70, 100)
    ]

    def orbit(**kw):
        with MapReduceVolumeRenderer(
            vol, 2, tf=default_tf(), render_config=config, **kw
        ) as r:
            handles = [r.submit_frame(cams[0], bricks_per_gpu=6)]
            out = []
            for cam in cams[1:]:
                handles.append(r.submit_frame(cam, bricks_per_gpu=6))
                out.append(r.collect_frame(handles.pop(0)))
            out.append(r.collect_frame(handles.pop(0)))
            return out

    want = orbit()
    # worker 0 maps chunks 0, 2, 4, …, 14 of the 16: chunk 6 is mid-batch
    got = orbit(
        executor="pool", workers=2, reduce_mode="worker",
        shuffle_mode=shuffle_mode, pipeline_depth=2,
        fault_plan="crash@map:worker=0,frame=2,chunk=6",
    )
    for a, b in zip(want, got):
        assert np.array_equal(a.image, b.image)
        assert a.stats.as_dict() == b.stats.as_dict()
    recovery = got[-1].stats.recovery
    assert recovery is not None and recovery["failures"] == 1
    assert recovery["respawns"] >= 1 and recovery["frames_reexecuted"] >= 1


# -- the two marches ---------------------------------------------------------
@pytest.mark.parametrize("shading", [False, True])
def test_c_march_casts_a_fused_launch_as_numpy_does(shading):
    """Both marches on one fused launch with clamped and unclamped,
    tabled and table-less bricks: the same bytes and counters, brick by
    brick; a shaded launch runs on NumPy whatever the process resolved."""
    camera = orbit_camera(VOLUME.shape, azimuth_deg=50, elevation_deg=15, width=48, height=48)
    tasks = _tasks(tag=f"marches-{shading}")
    config = RenderConfig(dt=0.75, shading=shading)
    out = {}
    for march in MARCHES:
        with use_march(march):
            out[march] = raycast_bricks(tasks, VOLUME.shape, camera, default_tf(), config)
    marched = [s for _, s in out["c"] if s.n_active_rays]
    assert marched and {s.march for s in marched} == {"numpy" if shading else "c"}
    for (got, got_stats), (ref, ref_stats) in zip(out["c"], out["numpy"]):
        assert got.tobytes() == ref.tobytes()
        assert got_stats == ref_stats
        assert got_stats.n_positioned == ref_stats.n_positioned


# -- axis-parallel rays ------------------------------------------------------
@pytest.mark.parametrize("azimuth,elevation", [(0, 0), (90, 0), (0, 80)])
def test_axis_parallel_rays_stay_float32_and_partition_exactly(azimuth, elevation):
    """An odd-sized axis-aligned view has rays with a zero direction
    component.  The slab test answers them in float32 like every other
    ray (the row-wise test it replaced promoted the whole rect to
    float64, so these views differ from it by ~1e-5 in colour and not at
    all in keys, depths or stats); adjacent bricks still see bitwise the
    same t on their shared face, so every sample of the whole-volume
    march is owned by exactly one brick; and fusing stays invisible."""
    from repro.render.geometry import box_intersect_f32

    camera = orbit_camera(
        VOLUME.shape, azimuth_deg=azimuth, elevation_deg=elevation,
        distance_factor=2.0, width=41, height=41,
    )
    dirs, _, _ = camera.footprint_rays_f32(camera.box_rects([(0, 0, 0)], [VOLUME.shape], 1))
    assert (dirs == 0.0).any()
    eye = np.asarray(camera.eye, dtype=F32)
    with np.errstate(divide="ignore"):
        inv = F32(1.0) / dirs
    b = BRICKS[13]  # the centre brick: off-axis columns miss it
    tn, tf_, hit = box_intersect_f32(
        np.asarray(b.lo, F32) - eye, np.asarray(b.hi, F32) - eye, dirs, inv
    )
    assert tn.dtype == tf_.dtype == np.float32
    assert hit.any() and not hit.all()
    assert np.isfinite(tn[hit]).all() and np.isfinite(tf_[hit]).all()
    # One test of every ray against a box of its own — the centre brick
    # (parallel rays inside its slab) then a corner brick (outside) — is
    # the two single-box tests end to end.
    n = len(dirs)
    corner = BRICKS[0]
    tn0, tf0, hit0 = box_intersect_f32(
        np.asarray(corner.lo, F32) - eye, np.asarray(corner.hi, F32) - eye, dirs, inv
    )
    parallel = (dirs == 0.0).any(axis=1)
    assert hit[parallel].any() and not hit0[parallel].any()
    lo2 = np.repeat(np.array([b.lo, corner.lo], F32) - eye, n, axis=0)
    hi2 = np.repeat(np.array([b.hi, corner.hi], F32) - eye, n, axis=0)
    both = box_intersect_f32(lo2, hi2, np.tile(dirs, (2, 1)), np.tile(inv, (2, 1)))
    for got, first, second in zip(both, (tn, tf_, hit), (tn0, tf0, hit0)):
        assert got.dtype == first.dtype
        assert got.tobytes() == first.tobytes() + second.tobytes()

    config = RenderConfig(dt=0.75, ert_alpha=1.0, accel="off")
    tasks = _tasks()
    fused = raycast_bricks(tasks, VOLUME.shape, camera, default_tf(), config)
    _, whole = raycast_brick(
        VOLUME.data, (0, 0, 0), (0, 0, 0), VOLUME.shape, VOLUME.shape,
        camera, default_tf(), config,
    )
    assert sum(s.n_samples for _, s in fused) == whole.n_samples
    for task, (frags, stats) in zip(tasks, fused):
        alone, alone_stats = raycast_bricks(
            [task], VOLUME.shape, camera, default_tf(), config
        )[0]
        assert frags.tobytes() == alone.tobytes() and stats == alone_stats


# -- what the march computes in ---------------------------------------------
def test_march_float_widths_are_pinned():
    """The sample path is *not* float32 end to end: ``ordinal × dt`` is
    int32 × float32-scalar, which NumPy promotes to float64, so
    positions, lattice fractions, lerps and sampled values are float64;
    table coordinates, colours and everything after are float32.  The
    golden fixtures depend on exactly this, so a NumPy promotion change
    should fail here, by name, rather than there."""
    dt = F32(0.75)
    j = np.arange(4, dtype=np.int32)
    assert (j * dt).dtype == np.float64
    t0 = np.full(4, 1.5, dtype=F32)
    t = t0 + j * dt
    assert t.dtype == np.float64
    c = F32(0.25) + t * np.full(4, 0.5, dtype=F32)  # lattice origin + t·d
    assert c.dtype == np.float64
    assert np.clip(c, F32(0.0), F32(6.0)).dtype == np.float64
    assert (c - c.astype(np.int32)).dtype == np.float64

    data = np.random.default_rng(0).random((5, 6, 7), dtype=F32)
    coords = [np.array([0.3, 2.9], dtype=F32)] * 3
    base, fx, fy, fz = _trilinear_prep(data.shape, *coords)
    assert base.dtype == np.int32
    assert fx.dtype == fy.dtype == fz.dtype == np.float64  # f32 − int32
    values = _trilinear_gather(data.ravel(), (42, 7, 1), base, fx, fy, fz)
    assert values.dtype == np.float64

    tf = default_tf()
    u = tf.table_coord(values)
    assert u.dtype == np.float32  # the cast back happens here
    assert tf.lookup_from_u(u).dtype == np.float32

    frags, _ = raycast_brick(
        data, (0, 0, 0), (0, 0, 0), data.shape, data.shape,
        orbit_camera(data.shape, width=16, height=16), tf,
        RenderConfig(),
    )
    assert frags.dtype == FRAGMENT_DTYPE and frags["depth"].dtype == np.float32
