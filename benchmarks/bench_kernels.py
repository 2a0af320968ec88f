"""KERNELS — micro-benchmarks of the functional kernels.

These time the functional kernels on this machine (where a kernel's
time goes), not the simulated GPU — the paper's simulated figures are
checked in ``tests/test_paper_claims.py``.  ``benchmarks/run_kernels.sh``
runs them into ``BENCH_kernels.json``.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro import MapReduceVolumeRenderer
from repro.core import InProcessExecutor, counting_sort_pairs, stable_counting_order
from repro.core.executors import map_chunks_to_runs, merge_partition_runs
from repro.render import (
    RenderConfig,
    composite_fragments,
    default_tf,
    grayscale_tf,
    make_fragments,
    orbit_camera,
    ray_box_intersect,
    raycast_brick,
    trilinear_sample,
)
from repro.render.accel import AccelCache
from repro.render.raycast import BrickTask, raycast_bricks
from repro.volume import bricks_for_gpu_count, make_dataset

VOL = make_dataset("supernova", (32, 32, 32))
CAM = orbit_camera(VOL.shape, width=128, height=128, distance_factor=2.2)
TF = default_tf()
RNG = np.random.default_rng(7)


def _sparse_volume(size: int, fill: float) -> np.ndarray:
    """A mostly-empty volume with a centred dense blob of ``fill`` volume
    fraction — the regime empty-space skipping targets."""
    rng = np.random.default_rng(11)
    data = np.zeros((size,) * 3, np.float32)
    edge = max(2, round(size * fill ** (1.0 / 3.0)))
    lo = (size - edge) // 2
    data[lo : lo + edge, lo : lo + edge, lo : lo + edge] = rng.uniform(
        0.2, 1.0, (edge,) * 3
    ).astype(np.float32)
    return data


_SPARSE = {"sparse": _sparse_volume(32, 0.05), "half": _sparse_volume(32, 0.5)}
#: Warm per-case caches: the bench measures the steady orbit regime
#: (structures resident, like the paper's per-GPU static data), not the
#: one-off build.
_ACCEL_CACHE = AccelCache()


def test_bench_raycast_kernel(benchmark):
    cfg = RenderConfig(dt=1.0)
    frags, stats = benchmark(
        raycast_brick,
        VOL.data,
        (0, 0, 0),
        (0, 0, 0),
        VOL.shape,
        VOL.shape,
        CAM,
        TF,
        cfg,
    )
    assert stats.n_samples > 0


@pytest.mark.parametrize("block_size", [1, 8, 64])
def test_bench_raycast_block_size(benchmark, block_size):
    """ERT-vs-throughput tradeoff of the blocked marcher's block length."""
    cfg = RenderConfig(dt=1.0, block_size=block_size)
    frags, stats = benchmark(
        raycast_brick,
        VOL.data,
        (0, 0, 0),
        (0, 0, 0),
        VOL.shape,
        VOL.shape,
        CAM,
        TF,
        cfg,
    )
    assert stats.n_samples > 0


@pytest.mark.parametrize("sparsity", sorted(_SPARSE))
@pytest.mark.parametrize("accel", ["off", "table"])
def test_bench_raycast_macro_grid(benchmark, sparsity, accel):
    """Empty-space skipping (corner-max table + occupied-box trim) vs no
    acceleration, across volume sparsity, one brick.  (Named for the
    macro-cell grid whose ``grid-*`` rows it used to carry; ``table`` on
    the sparse volume is the row that beat the carve.)"""
    data = _SPARSE[sparsity]
    cfg = RenderConfig(dt=1.0, accel=accel)
    frags, stats = benchmark(
        raycast_brick,
        data,
        (0, 0, 0),
        (0, 0, 0),
        data.shape,
        data.shape,
        CAM,
        TF,
        cfg,
        accel_key=("bench-macro", sparsity),
        accel_cache=_ACCEL_CACHE,
    )
    assert stats.n_samples > 0
    assert (stats.n_positioned < stats.n_samples) == (accel == "table")


def _brick_scene():
    """The end-to-end benchmark's sparse scene at kernel level: skull
    64³ as 16 ghost-padded bricks, 128², dt 0.75 — ≈2 000 padded rays
    and 8–18 k owned samples per brick, the regime where a per-brick
    launch is interpreter-dispatch-bound."""
    vol = make_dataset("skull", (64, 64, 64))
    grid = bricks_for_gpu_count(vol.shape, 8, 2)
    tasks = [
        BrickTask(
            grid.extract(vol, b), b.data_lo, b.lo, b.hi,
            accel_key=("bench-bricks", b.id),
        )
        for b in grid
    ]
    cam = orbit_camera(
        vol.shape, azimuth_deg=30.0, elevation_deg=20.0, width=128, height=128
    )
    return vol, tasks, cam


_BRICK_SCENE = _brick_scene()


def _cast_frame(tasks, per_launch, shape, cam, cfg):
    """One frame's ray-cast stage, ``per_launch`` bricks per launch."""
    out = []
    for lo in range(0, len(tasks), per_launch):
        out += raycast_bricks(
            tasks[lo : lo + per_launch], shape, cam, TF, cfg, _ACCEL_CACHE
        )
    return out


@pytest.mark.parametrize("bricks_per_launch", [1, 2, 4, 8, 16])
def test_bench_raycast_fused(benchmark, bricks_per_launch):
    """What fusing buys: the same 16 bricks cast 1, 2, 4, 8 or 16 per
    launch (identical fragments every way).  The row pair that chose
    ``LAUNCH_RAY_BUDGET``: most of the gain is there by 4–8 bricks."""
    vol, tasks, cam = _BRICK_SCENE
    cfg = RenderConfig(dt=0.75)
    out = benchmark(_cast_frame, tasks, bricks_per_launch, vol.shape, cam, cfg)
    assert sum(s.n_samples for _, s in out) > 0


@pytest.mark.parametrize("accel", ["off", "table"])
def test_bench_macro_grid_bricks(benchmark, accel):
    """Empty-space skipping at brick scale: the end-to-end sparse
    scene's 16 bricks, 8 per launch, with and without table + trim."""
    vol, tasks, cam = _BRICK_SCENE
    cfg = RenderConfig(dt=0.75, accel=accel)
    out = benchmark(_cast_frame, tasks, 8, vol.shape, cam, cfg)
    owned = sum(s.n_samples for _, s in out)
    positioned = sum(s.n_positioned for _, s in out)
    assert (positioned < 0.6 * owned) == (accel == "table")


def test_bench_trilinear_sample(benchmark):
    pos = RNG.uniform(1, 31, (100_000, 3))
    out = benchmark(trilinear_sample, VOL.data, pos)
    assert out.shape == (100_000,)


def test_bench_ray_box_intersect(benchmark):
    o = RNG.uniform(-100, -50, (100_000, 3))
    d = RNG.normal(size=(100_000, 3))
    tn, tf_, hit = benchmark(
        ray_box_intersect, o, d, np.zeros(3), np.full(3, 32.0)
    )
    assert len(tn) == 100_000


def _bench_counting_sort(benchmark, n):
    keys = RNG.integers(0, 128 * 128, n).astype(np.int32)
    pairs = make_fragments(
        keys, RNG.uniform(0, 100, n).astype(np.float32), RNG.uniform(0, 1, (n, 4)).astype(np.float32)
    )
    sr = benchmark(counting_sort_pairs, pairs, "pixel", 0, 128 * 128 - 1)
    assert int(sr.counts.sum()) == n


def test_bench_counting_sort(benchmark):
    """The seed-gate row (matched by name, so it stays unparametrized):
    200 000 pairs, ten times any partition the renderer sorts."""
    _bench_counting_sort(benchmark, 200_000)


@pytest.mark.parametrize("n", [600, 13_000])
def test_bench_counting_sort_partition(benchmark, n):
    """The Sort stage at a size one partition had when the reduce ran
    partition by partition, and at the dense scene's whole-frame call."""
    _bench_counting_sort(benchmark, n)


@pytest.mark.parametrize("n", [600, 13_000, 200_000])
@pytest.mark.parametrize("n_slots", [1 << 14, 1 << 20], ids=lambda s: f"n_slots={s}")
def test_bench_stable_order(benchmark, n_slots, n):
    """The order primitive alone: one digit pass (128² pixels) and two
    (1024² pixels), at the partition sizes and at the seed-gate size —
    past the ~10⁵ pairs from which a single-pass C scatter over the
    whole key would beat the digit-wise order."""
    keys = RNG.integers(0, n_slots, n)
    order = benchmark(stable_counting_order, keys, n_slots)
    assert len(order) == n


class _CaptureExecutor(InProcessExecutor):
    """Renders as the in-process executor does and keeps the frame's
    spec and chunks."""

    def execute(self, spec, chunks, chunk_to_gpu=None):
        self.frame = (spec, list(chunks))
        return super().execute(spec, chunks, chunk_to_gpu)


@lru_cache(maxsize=None)
def _frame_runs(scene):
    """One real frame of the end-to-end benchmark's scene at 128²: its
    spec and chunk-ordered runs, what the reduce receives."""
    dataset, size, bricks_per_gpu, tf, cfg = {
        "sparse": ("skull", 64, 2, default_tf(), RenderConfig(dt=0.75)),
        "dense": (
            "supernova", 32, 4, grayscale_tf(max_alpha=0.3),
            RenderConfig(dt=1.0, ert_alpha=1.0),
        ),
    }[scene]
    vol = make_dataset(dataset, (size,) * 3)
    capture = _CaptureExecutor()
    renderer = MapReduceVolumeRenderer(
        volume=vol, cluster=8, tf=tf, render_config=cfg, executor=capture
    )
    cam = orbit_camera(
        vol.shape, azimuth_deg=30.0, elevation_deg=20.0, width=128, height=128
    )
    renderer.render(cam, bricks_per_gpu=bricks_per_gpu)
    spec, chunks = capture.frame
    return spec, [runs for runs, *_ in map_chunks_to_runs(spec, chunks)]


@pytest.mark.parametrize("scene", ["sparse", "dense"])
def test_bench_reduce_frame(benchmark, scene):
    """The in-process reduce of one frame: one Sort and one composite
    over all 8 partitions (≈4.6 k sparse / 14 k dense pairs)."""
    spec, runs_per_chunk = _frame_runs(scene)
    outputs, received = benchmark(merge_partition_runs, spec, runs_per_chunk)
    assert len(outputs) == spec.n_reducers and received.sum() > 0


def test_bench_composite_fragments(benchmark):
    n = 200_000
    keys = RNG.integers(0, 128 * 128, n).astype(np.int32)
    a = RNG.uniform(0, 1, n).astype(np.float32)
    rgba = np.concatenate(
        [RNG.uniform(0, 1, (n, 3)).astype(np.float32) * a[:, None], a[:, None]], axis=1
    )
    frags = make_fragments(keys, RNG.uniform(0, 100, n).astype(np.float32), rgba)
    img = benchmark(composite_fragments, frags, 128 * 128)
    assert img.shape == (128 * 128, 4)


def test_bench_transfer_lookup(benchmark):
    values = RNG.uniform(0, 1, 500_000)
    out = benchmark(TF.lookup, values)
    assert out.shape == (500_000, 4)


def test_bench_tracer_overhead_disabled(benchmark):
    """The disabled tracer's cost on the map hot loop: each span() is one
    module-global read + an is-None test returning a shared no-op.  This
    is the <1% overhead contract of --trace-out being absent."""
    from repro.observability.tracer import disable_tracing, span

    disable_tracing()

    def mapped_with_spans():
        frags = None
        for ci in range(4):
            with span(f"map:chunk={ci}", cat="map", chunk=ci):
                frags, _stats = raycast_brick(
                    VOL.data,
                    (0, 0, 0),
                    (0, 0, 0),
                    VOL.shape,
                    VOL.shape,
                    CAM,
                    TF,
                    RenderConfig(dt=1.0),
                    accel_cache=_ACCEL_CACHE,
                )
        return frags

    frags = benchmark(mapped_with_spans)
    assert frags is not None
