"""The march kernel: which implementation runs, how it is built, and
that both give the same bits.

* **Resolution** — the renderer's ``render_config.kernel`` names the
  march this process runs (``"c"`` or ``"numpy"``, never a choice), and
  forked pool workers inherit the parent's C march and report it.
* **Build and cache** — the C march is compiled once into a per-user
  cache keyed by a hash of source and flags: a stale hash rebuilds, a
  truncated library is rebuilt, an unsafe cache directory is refused, a
  failed build falls back to NumPy with its reason in the telemetry, and
  the warm path runs no subprocess.
* **Cross-march plumbing** — acceleration-cache entries carry no march
  name, so tables/boxes warmed under one march serve the other.
* **C reads nothing unchecked** — a wrong dtype, a non-contiguous
  buffer or a rect outside the viewport is refused before C sees it,
  and ``march.c`` compiles free of warnings.

Byte equality between the marches over launches, cuts, block sizes and
golden scenes lives with those suites (``test_fused_launch.py``,
``test_macro_grid.py``, ``test_golden_images.py``).
"""

import shutil
import subprocess
from dataclasses import replace

import numpy as np
import pytest

from repro import MapReduceVolumeRenderer, make_dataset, orbit_camera
from repro.core import InProcessExecutor
from repro.parallel import SharedMemoryPoolExecutor
from repro.render import RenderConfig, default_tf
from repro.render.accel import AccelCache
from repro.render.kernels import SetupPlan, c_backend, resolve
from repro.render.raycast import raycast_brick

from marches import MARCHES, use_march
from test_golden_images import assert_matches_golden, build_job, run_job


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty private cache directory and an unresolved loader; the
    process's own resolution is restored afterwards."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(c_backend, "_cache_dir", lambda: cache)
    cache.mkdir(mode=0o700)
    saved = c_backend.load()
    c_backend._STATE = None
    yield cache
    c_backend._STATE = saved


def _libraries(cache):
    return sorted(p.name for p in cache.glob("march-*.so"))


# -- resolution ---------------------------------------------------------------
def test_renderer_resolves_and_pins_concrete_backend():
    vol = make_dataset("skull", (16,) * 3)
    r = MapReduceVolumeRenderer(volume=vol, cluster=1)
    # A read-only name of what this process runs, never a request.
    assert r.render_config.kernel == resolve()[0] == "c"
    assert RenderConfig(shading=True).kernel == "numpy"
    with pytest.raises(TypeError):
        RenderConfig(kernel="numpy")
    with use_march("numpy"):
        assert r.render_config.kernel == "numpy"


def test_pool_matches_serial_with_pinned_kernel_and_telemetry():
    """Forked workers inherit the parent's C march: they report
    ``map.march=c`` and agree bitwise with the in-process NumPy march."""
    job = build_job("skull_default_az40")
    with use_march("numpy"):
        serial_image, serial_result = run_job(InProcessExecutor(), *job)
    with SharedMemoryPoolExecutor(workers=2) as pool:
        image, result = run_job(pool, *job)
    assert np.array_equal(image, serial_image)
    assert result.stats.as_dict() == serial_result.stats.as_dict()
    tel = result.stats.telemetry["metrics"]
    assert tel["map.march"]["value"] == "c"
    assert tel["map.march_reason"]["value"].split()[0] in ("cached", "built", "rebuilt")
    assert serial_result.stats.telemetry["metrics"]["map.march"]["value"] == "numpy"
    assert not any(k.startswith("kernel") for k in tel)
    assert_matches_golden("skull_default_az40", image, result)


# -- build and cache ------------------------------------------------------------
def test_build_then_warm_path_spawns_no_subprocess(fresh_cache, monkeypatch):
    fn, reason = c_backend.load()
    assert fn is not None and reason.startswith("built ")
    assert _libraries(fresh_cache) == [reason.split()[1]]
    assert not list(fresh_cache.glob(".march-*"))  # no temp file left behind

    def no_subprocess(*args, **kwargs):
        raise AssertionError(f"warm path ran a subprocess: {args}")

    monkeypatch.setattr(subprocess, "run", no_subprocess)
    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    c_backend._STATE = None
    fn, reason = c_backend.load()
    assert fn is not None and reason.startswith("cached ")


def test_failed_build_falls_back_to_numpy_with_its_reason(fresh_cache, monkeypatch):
    monkeypatch.setattr(c_backend, "_source", lambda: b"this is not C\n")
    assert c_backend.load()[0] is None
    assert resolve() == ("numpy", c_backend.load()[1])
    assert c_backend.load()[1].startswith("build failed")
    assert _libraries(fresh_cache) == [] and not list(fresh_cache.iterdir())
    image, result = run_job(InProcessExecutor(), *build_job("skull_default_az40"))
    tel = result.stats.telemetry["metrics"]
    assert tel["map.march"]["value"] == "numpy"
    assert tel["map.march_reason"]["value"].startswith("build failed")
    assert_matches_golden("skull_default_az40", image, result)


def test_missing_compiler_falls_back_to_numpy(fresh_cache, monkeypatch):
    monkeypatch.setattr(c_backend.shutil, "which", lambda name: None)
    assert c_backend.load() == (None, "no C compiler")


def test_stale_source_hash_triggers_a_rebuild(fresh_cache, monkeypatch):
    assert c_backend.load()[1].startswith("built ")
    first = _libraries(fresh_cache)
    source = c_backend.SOURCE.read_bytes() + b"\n/* edited */\n"
    monkeypatch.setattr(c_backend, "_source", lambda: source)
    c_backend._STATE = None
    fn, reason = c_backend.load()
    assert fn is not None and reason.startswith("built ")
    assert len(_libraries(fresh_cache)) == 2 and first[0] in _libraries(fresh_cache)


def test_truncated_library_is_rebuilt(fresh_cache, monkeypatch):
    """A library torn on disk (never one this process has mapped) is
    built again rather than handed to dlopen."""
    for keep in (64, 0.5):  # a torn header, a torn body
        source = c_backend.SOURCE.read_bytes() + f"/* {keep} */\n".encode()
        monkeypatch.setattr(c_backend, "_source", lambda: source)
        lib = c_backend._library_path(fresh_cache, source)
        assert c_backend._build(source, lib) is None
        size = lib.stat().st_size
        with open(lib, "r+b") as f:
            f.truncate(keep if keep > 1 else int(size * keep))
        assert not c_backend._intact(lib)
        c_backend._STATE = None
        fn, reason = c_backend.load()
        assert fn is not None and reason == f"rebuilt {lib.name}"
        assert lib.stat().st_size == size


def test_unsafe_cache_dir_is_refused(fresh_cache):
    fresh_cache.chmod(0o777)
    try:
        fn, reason = c_backend.load()
    finally:
        fresh_cache.chmod(0o700)
    assert fn is None and reason.startswith("unsafe cache dir")
    assert _libraries(fresh_cache) == []


def test_group_writable_library_is_refused(fresh_cache):
    c_backend.load()
    (lib,) = fresh_cache.glob("march-*.so")
    lib.chmod(0o666)
    c_backend._STATE = None
    fn, reason = c_backend.load()
    assert fn is None and reason.startswith("unsafe cache file")


# -- cross-march plumbing -------------------------------------------------------
def test_accel_cache_shared_across_backends():
    """Tables/boxes are pure functions of (brick, tf): the cache key
    carries no march name, so a cache warmed under one march serves the
    other without duplicate entries — with the same bytes."""
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
        config=RenderConfig(dt=0.5),
    )
    with use_march("numpy"):
        cold, cold_stats = raycast_brick(**kwargs, accel_key=("k",), accel_cache=cache)
    n_entries = cache.stats()["entries"]
    assert n_entries == 1  # corner-max table and its occupied box, one entry
    for march in MARCHES:
        hits = cache.hits
        with use_march(march):
            warm, warm_stats = raycast_brick(**kwargs, accel_key=("k",), accel_cache=cache)
        assert cache.stats()["entries"] == n_entries, f"{march} duplicated cache entries"
        assert cache.hits > hits, f"{march} missed the warmed cache"
        assert warm_stats.march == march
        assert warm.tobytes() == cold.tobytes() and warm_stats == cold_stats


# -- what C may read ------------------------------------------------------------
def test_bad_buffers_are_refused_before_c_sees_them(monkeypatch):
    """Every buffer the bindings hand to C is checked first: a wrong
    dtype, a non-contiguous array and a rect outside the viewport each
    raise ``ValueError`` and never reach ``repro_setup`` /
    ``repro_march``."""
    from repro.render import kernels

    lib, reason = c_backend.load()
    assert lib is not None, reason
    plans = []

    def record(plan, run=kernels.march):
        plans.append(plan)
        return run(plan)

    monkeypatch.setattr(kernels, "march", record)
    data = np.random.default_rng(4).random((12, 12, 12), dtype=np.float32)
    cam = orbit_camera((12,) * 3, width=24, height=24)
    with use_march("numpy"):
        raycast_brick(data, (0, 0, 0), (0, 0, 0), (12,) * 3, (12,) * 3, cam, default_tf())
    (plan,) = plans

    def reached(*args):
        raise AssertionError("C was handed a bad buffer")

    monkeypatch.setattr(lib.lib, "repro_setup", reached)
    monkeypatch.setattr(lib.lib, "repro_march", reached)
    cores = np.array([[[0, 0, 0], [12, 12, 12]]], np.float32)
    setup = SetupPlan(cam, np.array([[0, 0, 24, 24]]), cores, (12,) * 3, 0.5, False, True)
    for bad in (
        replace(setup, rects=np.array([[0, 0, 25, 4]])),  # outside the viewport
        replace(setup, rects=np.array([[-1, 0, 4, 4]])),
        replace(setup, cores=cores.astype(np.float64)),  # wrong dtype
        replace(setup, cores=np.asfortranarray(np.repeat(cores, 2, axis=0))[:1]),
    ):
        with pytest.raises(ValueError, match="C kernels"):
            lib.setup(bad)
    for bad in (
        replace(plan, t0=plan.t0.astype(np.float64)),  # wrong dtype
        replace(plan, dirs=np.asfortranarray(plan.dirs)),  # not contiguous
        replace(plan, keys=plan.keys.astype(np.int64)),
        replace(plan, segments=(
            replace(plan.segments[0], flat=np.repeat(plan.segments[0].flat, 2)[::2]),
        )),
    ):
        with pytest.raises(ValueError, match="C kernels"):
            lib.launch(bad)


def test_march_c_compiles_without_warnings():
    """The C kernels build warning-free under -Wall -Wextra -Werror (the
    same command is a tier-1 CI step)."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler")
    proc = subprocess.run(
        [cc, "-std=c99", "-O2", "-ffp-contract=off", "-Wall", "-Wextra", "-Werror",
         "-fsyntax-only", str(c_backend.SOURCE)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
