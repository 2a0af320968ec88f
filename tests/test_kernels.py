"""March-kernel backend suite: selection, fallback, pinning, conformance.

Three layers:

* **Selection semantics** (run everywhere): ``resolve_kernel`` fallback
  and strict-failure rules, config validation, and the renderer's
  resolve-and-pin behaviour — ``"auto"`` becomes a concrete backend name
  *once*, at construction, so the parent and every pool worker march
  with the same kernel or fail fast at worker spawn.
* **Cross-backend plumbing** (run everywhere): acceleration-cache
  entries are keyed without the backend name, so tables/boxes warmed
  under one kernel are served — not rebuilt — under another; pool
  telemetry carries the pinned backend and the warmup count.
* **Numba conformance** (``importorskip``): the compiled marcher against
  the straight-line reference marcher and the committed golden fixtures,
  under the parity contract documented in ``repro.render.kernels`` —
  fragment keys, depths, and every MapStats counter exact; colors within
  the blocked-vs-reference tolerance band (2e-4, 5e-4 shaded).
"""

import numpy as np
import pytest

from repro import MapReduceVolumeRenderer, make_dataset, orbit_camera
from repro.core import InProcessExecutor
from repro.observability import disable_tracing, enable_tracing
from repro.parallel import SharedMemoryPoolExecutor
from repro.render import (
    KERNEL_CHOICES,
    RenderConfig,
    available_backends,
    default_tf,
    resolve_kernel,
)
from repro.render.accel import AccelCache
from repro.render.raycast import raycast_brick
from repro.render import kernels as kernels_pkg
from repro.render.kernels import numba_backend, numpy_backend

from test_golden_images import (
    SCENES,
    build_job,
    load_golden,
    run_job,
)
from test_raycast_vectorized import assert_equivalent, make_volume


@pytest.fixture
def no_numba(monkeypatch):
    """Force the numba backend unavailable (and re-arm the one-shot
    fallback warning) regardless of what this box has installed."""
    monkeypatch.setattr(numba_backend, "_HAVE_NUMBA", False)
    monkeypatch.setattr(
        numba_backend, "_IMPORT_ERROR", ImportError("forced by test")
    )
    monkeypatch.setattr(kernels_pkg, "_FALLBACK_WARNED", False)


# -- selection semantics ------------------------------------------------------
def test_resolve_kernel_rejects_unknown_names():
    with pytest.raises(ValueError, match="kernel must be one of"):
        resolve_kernel("cuda")
    with pytest.raises(ValueError, match="kernel"):
        RenderConfig(kernel="cuda")
    with pytest.raises(ValueError, match="kernel"):
        SharedMemoryPoolExecutor(workers=1, kernel="cuda")


def test_concrete_backends_resolve_by_name():
    assert resolve_kernel("numpy").name == "numpy"
    assert "numpy" in available_backends()
    for name in available_backends():
        spec = resolve_kernel(name)
        assert spec.name == name
        assert callable(spec.march) and callable(spec.warmup)
    assert set(available_backends()) <= set(KERNEL_CHOICES)


def test_auto_falls_back_to_numpy_with_single_warning(no_numba):
    assert available_backends() == ("numpy",)
    with pytest.warns(RuntimeWarning, match="falling back") as rec:
        spec = resolve_kernel("auto")
        again = resolve_kernel("auto")  # second resolve must stay silent
    assert spec.name == "numpy" and again.name == "numpy"
    assert len(rec) == 1
    assert "pip install -e .[numba]" in str(rec[0].message)


def test_auto_fallback_warning_suppressed_for_probes(no_numba):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning would fail the test
        assert resolve_kernel("auto", warn=False).name == "numpy"
    # The one-shot latch was not consumed by the silent probe.
    assert not kernels_pkg._FALLBACK_WARNED


def test_explicit_numba_raises_with_install_guidance(no_numba):
    with pytest.raises(RuntimeError, match="kernel='numba' requested"):
        resolve_kernel("numba")
    try:
        resolve_kernel("numba")
    except RuntimeError as exc:
        assert "pip install -e .[numba]" in str(exc)


def test_renderer_resolves_and_pins_concrete_backend():
    vol = make_dataset("skull", (16,) * 3)
    r = MapReduceVolumeRenderer(volume=vol, cluster=1)
    # "auto" must not survive construction: workers receive a concrete
    # name, so parent and pool can never resolve differently.
    assert r.render_config.kernel in ("numpy", "numba")
    assert r.render_config.kernel in available_backends()
    r2 = MapReduceVolumeRenderer(volume=vol, cluster=1, kernel="numpy")
    assert r2.render_config.kernel == "numpy"


def test_worker_warmup_failure_fails_fast(no_numba):
    """A pinned backend the worker cannot provide must fail the frame
    loudly at spawn — never silently render with a divergent marcher.
    (Workers fork, so the forced-unavailable patch rides into them.)"""
    job = build_job("skull_default_az40")
    with SharedMemoryPoolExecutor(workers=2, kernel="numba") as pool:
        with pytest.raises(RuntimeError, match="kernel warmup"):
            run_job(pool, *job)


# -- cross-backend plumbing ---------------------------------------------------
def test_pool_matches_serial_with_pinned_kernel_and_telemetry():
    """Parent (serial oracle) and pool workers march with the same pinned
    backend and agree bitwise; the frame telemetry records the backend
    and one warmup per spawned worker, and each worker emits its
    ``kernel-warmup`` span into the merged trace."""
    job = build_job("skull_default_az40", kernel="numpy")
    serial_image, serial_result = run_job(InProcessExecutor(), *job)
    tr = enable_tracing()
    try:
        with SharedMemoryPoolExecutor(
            workers=2, reduce_mode="worker", kernel="numpy"
        ) as pool:
            image, result = run_job(pool, *job)
    finally:
        disable_tracing()
    assert np.array_equal(image, serial_image)
    assert result.stats.n_samples == serial_result.stats.n_samples
    tel = result.stats.telemetry["metrics"]
    assert tel["kernel_backend"]["value"] == "numpy"
    assert tel["kernel_warmups"]["value"] == 2
    warmups = [
        ev for _track, _gen, ev in tr.all_events() if ev[0] == "kernel-warmup"
    ]
    assert len(warmups) == 2  # one per worker
    assert {ev[4]["backend"] for ev in warmups} == {"numpy"}


def test_pool_without_pinned_kernel_reports_unpinned():
    with SharedMemoryPoolExecutor(workers=1) as pool:
        _, result = run_job(pool, *build_job("skull_gray_az40"))
    tel = result.stats.telemetry["metrics"]
    assert tel["kernel_backend"]["value"] == "unpinned"
    assert tel["kernel_warmups"]["value"] == 0


def test_accel_cache_shared_across_backends():
    """Tables/boxes are pure functions of (brick, tf): the cache key
    carries no backend name, so a cache warmed under one kernel serves
    every other backend without duplicate entries."""
    rng = np.random.default_rng(9)
    data = np.zeros((16, 16, 16), np.float32)
    data[4:12, 4:12, 4:12] = rng.random((8, 8, 8), dtype=np.float32)
    cam = orbit_camera((16,) * 3, azimuth_deg=30.0, width=48, height=48)
    cache = AccelCache()
    kwargs = dict(
        data=data,
        data_lo=(0, 0, 0),
        core_lo=(0, 0, 0),
        core_hi=(16, 16, 16),
        volume_shape=(16, 16, 16),
        camera=cam,
        tf=default_tf(),
        config=RenderConfig(dt=0.5, kernel="numpy"),
    )
    cold, cold_stats = raycast_brick(
        **kwargs, accel_key=("k",), accel_cache=cache
    )
    n_entries = len(cache)
    assert n_entries == 2  # corner-max table + its occupied box
    for backend in available_backends():
        hits = cache.hits
        kwargs["config"] = RenderConfig(dt=0.5, kernel=backend)
        warm, warm_stats = raycast_brick(
            **kwargs, accel_key=("k",), accel_cache=cache
        )
        assert len(cache) == n_entries, f"{backend} duplicated cache entries"
        assert cache.hits > hits, f"{backend} missed the warmed cache"
        # Same structures, same skip decisions: exact keys and counters.
        assert np.array_equal(warm["pixel"], cold["pixel"])
        assert np.array_equal(warm["depth"], cold["depth"])
        assert warm_stats.n_samples == cold_stats.n_samples
        assert warm_stats.n_kept == cold_stats.n_kept
        for ch in ("r", "g", "b", "a"):
            np.testing.assert_allclose(warm[ch], cold[ch], atol=2e-4)


# -- numba conformance --------------------------------------------------------
def _require_numba():
    pytest.importorskip("numba")
    if not numba_backend.available():  # pragma: no cover - import raced
        pytest.skip("numba backend unavailable")


def test_numba_warmup_compiles_once_and_is_idempotent():
    _require_numba()
    spec = resolve_kernel("numba")
    assert spec.name == "numba"
    spec.warmup()
    spec.warmup()  # second call must be a cheap no-op
    assert numba_backend._WARMED


@pytest.mark.parametrize("shading", [False, True])
@pytest.mark.parametrize(
    "dt,block_size,ert_alpha",
    [(1.0, 8, 1.0), (0.75, 1, 1.0), (0.6, 4, 0.9), (1.35, 64, 0.95)],
)
def test_numba_matches_reference_marcher(dt, block_size, ert_alpha, shading):
    """The full blocked-vs-reference property oracle, kernel pinned to
    numba: exact keys/depths/counters, banded colors."""
    _require_numba()
    rng = np.random.default_rng(17)
    vol = make_volume(rng, (14, 14, 14))
    cam = orbit_camera(
        vol.shape, azimuth_deg=40.0, elevation_deg=25.0, width=24, height=24
    )
    config = RenderConfig(
        dt=dt,
        block_size=block_size,
        ert_alpha=ert_alpha,
        shading=shading,
        kernel="numba",
    )
    assert_equivalent(
        vol, None, cam, default_tf(), config, atol=5e-4 if shading else 2e-4
    )


def test_numba_matches_reference_with_empty_space():
    _require_numba()
    rng = np.random.default_rng(11)
    data = np.zeros((16, 16, 16), np.float32)
    data[4:12, 4:12, 4:12] = rng.random((8, 8, 8), dtype=np.float32)
    from repro.volume import Volume

    vol = Volume(data)
    cam = orbit_camera(
        vol.shape, azimuth_deg=15.0, elevation_deg=35.0, width=24, height=24
    )
    for accel in ("off", "table"):
        config = RenderConfig(dt=0.7, block_size=16, accel=accel, kernel="numba")
        assert_equivalent(vol, None, cam, default_tf(), config)


@pytest.mark.parametrize("block_size,ert_alpha", [(1, 1.0), (3, 0.9), (8, 0.5)])
def test_numba_bounds_its_ray_loop_by_the_trim_interval(block_size, ert_alpha):
    """The compiled marcher samples only ``[lead, trail)`` of each block
    window: on trimmed launches it positions exactly the samples the
    numpy fold positions, and its bytes and counters are those of
    ``accel="off"``."""
    _require_numba()
    from repro.render.raycast import raycast_bricks
    from test_macro_grid import trimmed_launches

    for shape, cam, tasks in trimmed_launches():
        out = {
            (kernel, accel): raycast_bricks(
                tasks, shape, cam, default_tf(),
                RenderConfig(
                    dt=0.6, block_size=block_size, ert_alpha=ert_alpha,
                    accel=accel, kernel=kernel,
                ),
            )
            for kernel in ("numba", "numpy")
            for accel in ("table", "off")
        }
        for (nb, nb_s), (ref, ref_s), (off, off_s) in zip(
            out["numba", "table"], out["numpy", "table"], out["numba", "off"]
        ):
            assert nb_s == ref_s == off_s
            assert nb_s.n_positioned == ref_s.n_positioned <= off_s.n_positioned
            assert np.array_equal(nb["pixel"], ref["pixel"])
            assert np.array_equal(nb["depth"], ref["depth"])
            assert nb.tobytes() == off.tobytes()  # same kernel: bitwise
            for ch in "rgba":
                np.testing.assert_allclose(nb[ch], ref[ch], atol=2e-4)


def assert_matches_golden_banded(name, image, result, atol=2e-4):
    """Golden assertion under the kernel parity contract: routing and
    counters exact, colors within the documented band."""
    g = load_golden(name)
    assert image.dtype == np.float32
    assert image.shape == g["image"].shape
    np.testing.assert_allclose(image, g["image"], atol=atol)
    assert np.array_equal(result.pairs_per_reducer, g["pairs_per_reducer"])
    s = result.stats
    counters = np.array(
        [s.n_chunks, s.n_rays, s.n_samples, s.n_pairs_emitted, s.n_pairs_kept],
        dtype=np.int64,
    )
    assert np.array_equal(counters, g["counters"]), f"{name}: stats diverged"


@pytest.mark.parametrize("accel", ["off", "table", "grid"])
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_numba_golden_matrix_serial(scene, accel):
    _require_numba()
    image, result = run_job(
        InProcessExecutor(), *build_job(scene, accel=accel, kernel="numba")
    )
    assert_matches_golden_banded(scene, image, result)


@pytest.mark.parametrize("reduce_mode", ["parent", "worker"])
def test_numba_golden_through_pool(reduce_mode):
    _require_numba()
    job = build_job("skull_default_az40", accel="table", kernel="numba")
    with SharedMemoryPoolExecutor(
        workers=2, reduce_mode=reduce_mode, kernel="numba"
    ) as pool:
        image, result = run_job(pool, *job)
        tel = result.stats.telemetry["metrics"]
        assert tel["kernel_backend"]["value"] == "numba"
        assert tel["kernel_warmups"]["value"] == 2
        # the workers really trimmed
        assert 0 < tel["map.positioned_samples"]["value"] < result.stats.n_samples
    assert_matches_golden_banded("skull_default_az40", image, result)


def test_numba_matches_numpy_fragment_for_fragment():
    """Direct backend-vs-backend parity on one brick: keys, depths, and
    counters exact; per-fragment colors within the band."""
    _require_numba()
    rng = np.random.default_rng(23)
    data = rng.random((14, 14, 14), dtype=np.float32)
    cam = orbit_camera((14,) * 3, azimuth_deg=70.0, width=32, height=32)
    out = {}
    for backend in ("numpy", "numba"):
        out[backend] = raycast_brick(
            data, (0, 0, 0), (0, 0, 0), (14,) * 3, (14,) * 3, cam,
            default_tf(), RenderConfig(dt=0.8, ert_alpha=0.95, kernel=backend),
        )
    (f_np, s_np), (f_nb, s_nb) = out["numpy"], out["numba"]
    assert s_np == s_nb  # every MapStats counter, exact
    assert np.array_equal(f_np["pixel"], f_nb["pixel"])
    assert np.array_equal(f_np["depth"], f_nb["depth"])
    for ch in ("r", "g", "b", "a"):
        np.testing.assert_allclose(f_np[ch], f_nb[ch], atol=2e-4)
