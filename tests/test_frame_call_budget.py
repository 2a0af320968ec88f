"""The warm-frame call budget: a ratchet on the Python one frame runs.

One warm frame of each benchmark scene counts the ``call`` events that
``sys.setprofile`` sees: every Python function entered, generator
resumptions included (NumPy's Python-level wrappers count; C functions
do not).  The frame is the third render of one view (azimuth 30°,
elevation 20°, 128², in-process executor, C march), so every cache a
frame fills is warm.  The count is exact and repeats from run to run,
where wall and CPU time on a shared box cannot resolve a 5 % change;
with frame threads, every one of these calls holds the GIL.

Each scene's count must stay at or under its ceiling.  A change may
lower a ceiling; raising one needs a line in CHANGES.md giving the
reason.  Interpreters that inline comprehensions (Python 3.12, PEP 709)
can only count fewer calls.
"""

import gc
import sys

import pytest

from repro import (
    MapReduceVolumeRenderer,
    RenderConfig,
    default_tf,
    grayscale_tf,
    make_dataset,
    orbit_camera,
)
from repro.observability import tracer
from repro.render.kernels import resolve

# The end-to-end benchmark's scenes (benchmarks/e2e/harness.py, SCENES).
SCENES = {
    "sparse": {
        "dataset": "skull", "size": 64, "gpus": 8, "bricks_per_gpu": 2,
        "gray_alpha": None, "dt": 0.75, "ert_alpha": None, "image": 128,
    },
    "dense": {
        "dataset": "supernova", "size": 32, "gpus": 8, "bricks_per_gpu": 4,
        "gray_alpha": 0.3, "dt": 1.0, "ert_alpha": 1.0, "image": 128,
    },
}

#: Python calls one warm frame may make.  Measured 749 and 877 on
#: Python 3.11 with NumPy 2.4 (1,637 and 2,437 before a launch's
#: footprints became one array; see CHANGES.md); the headroom is for
#: NumPy releases whose Python-level wrappers differ.
CEILING = {"sparse": 780, "dense": 910}


def warm_frame_calls(scene: dict) -> int:
    """``call`` events of the third render of one view of ``scene``."""
    volume = make_dataset(scene["dataset"], (scene["size"],) * 3)
    if scene["gray_alpha"] is None:
        tf = default_tf()
    else:
        tf = grayscale_tf(max_alpha=scene["gray_alpha"])
    config = {"dt": scene["dt"]}
    if scene["ert_alpha"] is not None:
        config["ert_alpha"] = scene["ert_alpha"]
    renderer = MapReduceVolumeRenderer(
        volume=volume, cluster=scene["gpus"], tf=tf, render_config=RenderConfig(**config)
    )
    camera = orbit_camera(
        volume.shape, azimuth_deg=30.0, elevation_deg=20.0,
        width=scene["image"], height=scene["image"],
    )
    for _ in range(2):
        renderer.render(camera, bricks_per_gpu=scene["bricks_per_gpu"])
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    # A collection mid-frame could run a finalizer (a weakref callback)
    # and count it.
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        renderer.render(camera, bricks_per_gpu=scene["bricks_per_gpu"])
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


@pytest.mark.parametrize("scene", sorted(SCENES))
def test_a_warm_frame_stays_within_its_call_budget(scene, monkeypatch):
    if RenderConfig().kernel != "c":
        pytest.skip(f"the budget is counted on the C march, which cannot run here: {resolve()[1]}")
    monkeypatch.setattr(tracer, "_active", None)  # no tracer left on by another test
    calls = warm_frame_calls(SCENES[scene])
    assert calls <= CEILING[scene], (
        f"a warm {scene} frame made {calls} Python calls; its ceiling is {CEILING[scene]}"
    )
