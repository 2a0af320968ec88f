"""Golden-image regression suite.

Small deterministic rendered fixtures (cameras × transfer functions ×
brick layouts, float32 arrays in ``tests/golden/*.npz``) pin the exact
output of the functional pipeline.  Every executor / reduce-mode /
shuffle-mode / pipeline-depth combination — and every empty-space
acceleration setting (``accel`` off / corner-max table with the
occupied-box trim, under either spelling) — must reproduce them
**bitwise**: neither the concurrency
machinery (worker scheduling, ring streaming, worker-side reduce
placement, the parent-routed vs mesh shuffle plane, frame pipelining)
nor the skip structures may leak into the image or the deterministic
counters.

The pipeline is pure NumPy (float32 IEEE ops, stable sorts), so the
fixtures are reproducible across runs and processes.  If an intentional
kernel change shifts the output, regenerate them with::

    PYTHONPATH=src python tests/test_golden_images.py --regen

and commit the new ``.npz`` files together with the kernel change.
"""

import glob
import multiprocessing
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import MapReduceVolumeRenderer, make_dataset, orbit_camera  # noqa: E402
from repro.core import InProcessExecutor  # noqa: E402
from repro.parallel import SharedMemoryPoolExecutor  # noqa: E402
from repro.render import RenderConfig, default_tf, grayscale_tf  # noqa: E402
from repro.render.stitch import stitch_pixels  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "golden"

_TFS = {"default": default_tf, "grayscale": grayscale_tf}

# A few cameras × transfer functions × brick layouts: small enough to
# commit, varied enough to cover ERT on/off, placeholder emission,
# multi-brick layouts, and an uneven reducer count.
SCENES = {
    "skull_default_az40": dict(
        dataset="skull", size=24, gpus=2, bricks_per_gpu=2, image=64,
        azimuth=40.0, elevation=20.0, tf="default", dt=0.75,
        ert_alpha=0.98, placeholders=False,
    ),
    "skull_default_az130": dict(
        dataset="skull", size=24, gpus=2, bricks_per_gpu=2, image=64,
        azimuth=130.0, elevation=-15.0, tf="default", dt=0.75,
        ert_alpha=0.98, placeholders=False,
    ),
    "skull_gray_az40": dict(
        dataset="skull", size=24, gpus=2, bricks_per_gpu=2, image=64,
        azimuth=40.0, elevation=20.0, tf="grayscale", dt=0.75,
        ert_alpha=0.98, placeholders=False,
    ),
    "skull_noert_placeholders": dict(
        dataset="skull", size=24, gpus=2, bricks_per_gpu=2, image=64,
        azimuth=40.0, elevation=20.0, tf="default", dt=0.75,
        ert_alpha=1.0, placeholders=True,
    ),
    "plume_gpus3_bpg1": dict(
        dataset="plume", size=20, gpus=3, bricks_per_gpu=1, image=64,
        azimuth=75.0, elevation=10.0, tf="default", dt=0.75,
        ert_alpha=0.98, placeholders=False,
    ),
}


def build_job(name, accel=None, kernel=None):
    """Renderer + camera + chunk placement for one golden scene.

    ``accel`` overrides the empty-space machinery; the fixtures were
    rendered once and every accel mode must reproduce them bitwise (the
    trim's conservative-skip proof obligation).  ``kernel`` pins a
    march-kernel backend (tests/test_kernels.py runs the matrix against
    the numba backend, comparing within its documented color band).
    """
    s = SCENES[name]
    vol = make_dataset(s["dataset"], (s["size"],) * 3)
    cam = orbit_camera(
        vol.shape,
        azimuth_deg=s["azimuth"],
        elevation_deg=s["elevation"],
        width=s["image"],
        height=s["image"],
    )
    overrides = {} if accel is None else {"accel": accel}
    if kernel is not None:
        overrides["kernel"] = kernel
    r = MapReduceVolumeRenderer(
        volume=vol,
        cluster=s["gpus"],
        tf=_TFS[s["tf"]](),
        render_config=RenderConfig(
            dt=s["dt"],
            ert_alpha=s["ert_alpha"],
            emit_placeholders=s["placeholders"],
            **overrides,
        ),
    )
    chunks = r._chunks(r._grid(s["bricks_per_gpu"]), False)
    ctg = [c.id % r.n_gpus for c in chunks]
    return r, cam, chunks, ctg


def run_job(executor, r, cam, chunks, ctg):
    """Execute one prepared job → (image, InProcessResult)."""
    result = executor.execute(r._spec(cam), chunks, ctg)
    parts = [(k, v) for k, v in result.outputs if len(k)]
    image = stitch_pixels(parts, cam.width, cam.height)
    return image, result


def render_scene(name, executor):
    """Run one scene through ``executor`` → (image, InProcessResult)."""
    return run_job(executor, *build_job(name))


def golden_path(name) -> Path:
    return GOLDEN_DIR / f"{name}.npz"


def load_golden(name):
    path = golden_path(name)
    if not path.exists():  # pragma: no cover - missing fixture is an error
        pytest.fail(
            f"golden fixture {path} missing; regenerate with "
            f"`PYTHONPATH=src python {__file__} --regen`"
        )
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def assert_matches_golden(name, image, result):
    g = load_golden(name)
    assert image.dtype == np.float32
    assert np.array_equal(image, g["image"]), f"{name}: image diverged"
    assert np.array_equal(
        result.pairs_per_reducer, g["pairs_per_reducer"]
    ), f"{name}: per-reducer routing diverged"
    s = result.stats
    counters = np.array(
        [s.n_chunks, s.n_rays, s.n_samples, s.n_pairs_emitted, s.n_pairs_kept],
        dtype=np.int64,
    )
    assert np.array_equal(counters, g["counters"]), f"{name}: stats diverged"


# -- tier-1: serial oracle + the pool smoke set ------------------------------

def positioned_samples(stats) -> int:
    """Samples a frame's marches positioned, wherever it was mapped."""
    return stats.telemetry["metrics"]["map.positioned_samples"]["value"]


@pytest.mark.parametrize("scene", sorted(SCENES))
def test_inprocess_matches_golden(scene):
    image, result = render_scene(scene, InProcessExecutor())
    assert_matches_golden(scene, image, result)


@pytest.mark.parametrize("accel", ["off", "table", "grid"])
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_inprocess_accel_modes_match_golden(scene, accel):
    """Every empty-space setting reproduces the committed fixtures
    bitwise — images, per-reducer routing, and counters (n_samples
    counts owned samples in every mode by contract)."""
    image, result = run_job(InProcessExecutor(), *build_job(scene, accel=accel))
    assert_matches_golden(scene, image, result)
    if accel == "off":
        assert positioned_samples(result.stats) == result.stats.n_samples


@pytest.mark.parametrize("reduce_mode", ["parent", "worker"])
def test_pool_grid_accel_matches_golden(reduce_mode):
    """The trimmed path through the pool executor (worker-built, then
    worker-cached tables and boxes), in both reduce modes."""
    job = build_job("skull_default_az40", accel="grid")
    with SharedMemoryPoolExecutor(workers=2, reduce_mode=reduce_mode) as pool:
        image, result = run_job(pool, *job)
        # second render hits the resident arena + warm worker caches
        image2, result2 = run_job(pool, *job)
    assert_matches_golden("skull_default_az40", image, result)
    assert_matches_golden("skull_default_az40", image2, result2)
    # the workers really trimmed, cold and warm alike
    positioned = positioned_samples(result.stats)
    assert 0 < positioned < result.stats.n_samples
    assert positioned_samples(result2.stats) == positioned


@pytest.mark.parametrize("shuffle_mode", ["parent", "mesh", "tcp"])
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_pool_worker_reduce_matches_golden(scene, shuffle_mode):
    """Worker-side reduce over all three shuffle planes: the
    parent-routed transport, the direct worker↔worker mesh, and the
    socket streams must reproduce the fixtures bitwise — the plane only
    decides which processes the run bytes traverse, never what they
    decode to."""
    with SharedMemoryPoolExecutor(
        workers=2, reduce_mode="worker", shuffle_mode=shuffle_mode
    ) as pool:
        image, result = render_scene(scene, pool)
        assert result.stats.ring["shuffle_mode"] == shuffle_mode
        if shuffle_mode in ("mesh", "tcp"):
            # The control-plane guarantee: zero run bytes crossed the
            # parent on the way to the reducers.
            assert result.stats.ring["parent_run_bytes"] == 0
        if shuffle_mode == "tcp":
            assert result.stats.ring["wire_bytes_total"] > 0
    assert_matches_golden(scene, image, result)


_SCIPY_TRIPWIRE = r"""
import os, sys
log, tests_dir = sys.argv[1:]

class Tripwire:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            with open(log, "a") as f:
                f.write(f"pid {os.getpid()} imported {name}\n")
            raise ImportError("scipy is off limits in this test")

sys.meta_path.insert(0, Tripwire)
try:
    import scipy
except ImportError:
    os.remove(log)  # the wire trips, and logs; start clean
else:
    sys.exit("tripwire did not trip")

sys.path.insert(0, tests_dir)
import test_golden_images as g

scene = "skull_default_az40"
g.assert_matches_golden(scene, *g.render_scene(scene, g.InProcessExecutor()))
for plane in ("mesh", "tcp"):
    with g.SharedMemoryPoolExecutor(
        workers=2, reduce_mode="worker", shuffle_mode=plane
    ) as pool:
        g.assert_matches_golden(scene, *g.render_scene(scene, pool))
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers inherit the import tripwire only by fork",
)
def test_render_path_never_imports_scipy(tmp_path):
    """NumPy is the only dependency of the render path.  A fresh
    interpreter whose import system logs and refuses every ``scipy``
    import — a guarded one too, which a bare ``sys.modules`` poison
    would let through — renders a golden scene in-process and through a
    2-worker pool (worker reduce, mesh and tcp planes; fork-started
    workers inherit the tripwire): bitwise images, empty log."""
    log = tmp_path / "scipy_imports.log"
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_TRIPWIRE, str(log), str(Path(__file__).parent)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert not log.exists(), log.read_text()


def test_pool_parent_reduce_pipelined_matches_golden():
    with SharedMemoryPoolExecutor(
        workers=2, reduce_mode="parent", pipeline_depth=2
    ) as pool:
        image, result = render_scene("skull_default_az40", pool)
    assert_matches_golden("skull_default_az40", image, result)


def test_pool_mesh_pipelined_matches_golden():
    """Depth-2 pipelining over the mesh plane: per-frame watermarks keep
    interleaved in-flight frames bitwise-correct."""
    with SharedMemoryPoolExecutor(
        workers=2, reduce_mode="worker", shuffle_mode="mesh", pipeline_depth=2
    ) as pool:
        image, result = render_scene("skull_default_az40", pool)
        image2, result2 = render_scene("skull_default_az130", pool)
    assert_matches_golden("skull_default_az40", image, result)
    assert_matches_golden("skull_default_az130", image2, result2)


def test_pool_serial_fallback_matches_golden():
    pool = SharedMemoryPoolExecutor(workers=1, serial=True)
    image, result = render_scene("skull_gray_az40", pool)
    assert_matches_golden("skull_gray_az40", image, result)


# -- crash + in-place recovery must also be bitwise ---------------------------
def _render_with_crash(scene, shuffle_mode, reduce_mode, pipeline_depth,
                       fault_plan="crash@map:worker=0,frame=1"):
    """Render ``scene`` with an injected mid-frame fault: the supervisor
    recycles the transport epoch, re-attaches the surviving arena, and
    re-executes the frame — the recovered image must match the golden
    fixture bitwise and leave /dev/shm exactly as it found it."""
    before = set(glob.glob("/dev/shm/*"))
    with SharedMemoryPoolExecutor(
        workers=2,
        reduce_mode=reduce_mode,
        shuffle_mode=shuffle_mode,
        pipeline_depth=pipeline_depth,
        fault_plan=fault_plan,
        retry_backoff=0.0,
    ) as pool:
        image, result = render_scene(scene, pool)
        assert pool._supervisor.active, "injected fault never fired"
        recovery = result.stats.recovery
        assert recovery is not None and recovery["respawns"] >= 1
        # A recovered pool keeps rendering: the next frame reuses the
        # re-attached arena and respawned workers.
        image2, result2 = render_scene(scene, pool)
    assert_matches_golden(scene, image, result)
    assert_matches_golden(scene, image2, result2)
    leaked = set(glob.glob("/dev/shm/*")) - before
    assert not leaked, f"recovery leaked shm segments: {leaked}"


def test_pool_crash_recovery_matches_golden_smoke():
    """Tier-1 canary for the slow recovery matrix below."""
    _render_with_crash("skull_default_az40", "mesh", "worker", 1)


def test_pool_tcp_crash_recovery_matches_golden_smoke():
    """Socket-plane canary: a mid-frame crash drops the worker's
    connections (peers see SocketClosed, not just a missing process),
    and the recovered render must still be bitwise-golden."""
    _render_with_crash("skull_default_az40", "tcp", "worker", 1)


@pytest.mark.slow
@pytest.mark.parametrize("shuffle_mode,reduce_mode", [
    ("parent", "parent"), ("parent", "worker"), ("mesh", "worker"),
    ("tcp", "worker"),
])
@pytest.mark.parametrize("pipeline_depth", [1, 2])
def test_pool_crash_recovery_matrix_matches_golden(
    shuffle_mode, reduce_mode, pipeline_depth
):
    _render_with_crash(
        "skull_default_az40", shuffle_mode, reduce_mode, pipeline_depth
    )


@pytest.mark.slow
@pytest.mark.parametrize("fault_plan", [
    "exit(3)@shuffle-out:worker=1,frame=1",
    "crash@reduce:worker=0,frame=1",
])
def test_pool_crash_recovery_other_stages_match_golden(fault_plan):
    _render_with_crash(
        "skull_default_az40", "mesh", "worker", 1, fault_plan=fault_plan
    )


# -- slow: the full executor × reduce-mode × depth × workers matrix ----------
@pytest.mark.slow
@pytest.mark.parametrize("scene", sorted(SCENES))
@pytest.mark.parametrize("accel", ["off", "table"])
@pytest.mark.parametrize("reduce_mode", ["parent", "worker"])
def test_pool_accel_matrix_matches_golden(scene, accel, reduce_mode):
    """Trimmed vs accel-off through the pool, all scenes."""
    job = build_job(scene, accel=accel)
    with SharedMemoryPoolExecutor(workers=2, reduce_mode=reduce_mode) as pool:
        image, result = run_job(pool, *job)
    assert_matches_golden(scene, image, result)
    # the workers positioned exactly the samples this process positions
    # (fewer than owned under "table", all of them under "off")
    serial = run_job(InProcessExecutor(), *job)[1].stats
    assert positioned_samples(result.stats) == positioned_samples(serial)
    if scene != "skull_gray_az40":  # opaque-from-zero TF: nothing to skip
        assert (positioned_samples(serial) < serial.n_samples) == (accel == "table")


@pytest.mark.slow
@pytest.mark.parametrize("scene", sorted(SCENES))
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("shuffle_mode", ["parent", "mesh"])
@pytest.mark.parametrize("reduce_mode", ["parent", "worker"])
@pytest.mark.parametrize("pipeline_depth", [1, 2])
def test_pool_matrix_matches_golden(
    scene, workers, shuffle_mode, reduce_mode, pipeline_depth
):
    if shuffle_mode == "mesh" and reduce_mode == "parent":
        pytest.skip(
            "mesh never materializes under a parent-side reduce "
            "(identical code path to the parent plane)"
        )
    job = build_job(scene)
    with SharedMemoryPoolExecutor(
        workers=workers,
        reduce_mode=reduce_mode,
        shuffle_mode=shuffle_mode,
        pipeline_depth=pipeline_depth,
    ) as pool:
        # Render the *same* job twice: the volume object (and so its
        # identity token) is shared, so the second pass actually hits the
        # resident-arena + warm accel-cache path, which must stay
        # bitwise stable.
        image, result = run_job(pool, *job)
        assert pool._arena_fingerprint is not None
        image2, result2 = run_job(pool, *job)
    assert_matches_golden(scene, image, result)
    assert_matches_golden(scene, image2, result2)


# -- fixture (re)generation --------------------------------------------------
def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(SCENES):
        image, result = render_scene(name, InProcessExecutor())
        s = result.stats
        np.savez_compressed(
            golden_path(name),
            image=image,
            pairs_per_reducer=result.pairs_per_reducer,
            counters=np.array(
                [
                    s.n_chunks,
                    s.n_rays,
                    s.n_samples,
                    s.n_pairs_emitted,
                    s.n_pairs_kept,
                ],
                dtype=np.int64,
            ),
        )
        print(
            f"wrote {golden_path(name)} "
            f"({image.shape[1]}x{image.shape[0]}, "
            f"{result.stats.n_pairs_kept} fragments kept)"
        )


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description="golden fixture maintenance")
    ap.add_argument(
        "--regen",
        action="store_true",
        help="re-render every fixture with the serial executor and "
        "overwrite tests/golden/*.npz",
    )
    args = ap.parse_args()
    if args.regen:
        regenerate()
    else:
        ap.error("nothing to do (pass --regen)")
