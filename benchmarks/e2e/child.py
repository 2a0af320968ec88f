"""Measuring child of the e2e benchmark.

``run.py`` starts one fresh process of this file per repeat, writes a
JSON plan to its stdin and reads one JSON result from the last line of
its stdout.  Roles:

``orbit``   build the scene and the renderer (timed as set-up), deliver
            the warm-up frames, then render one lap of the plan's
            views through ``submit_frame``/``collect_frame`` exactly as
            ``render_rotation`` does, timing the interval between frame
            completions and digesting every image;
``oracle``  render the given views with the in-process executor (the
            bitwise oracle of every other executor), check one of them
            against the single-pass reference renderer, and stamp the
            environment;
``cold``    a launcher that never imports the program: it starts fresh
            ``python -m repro render`` processes one after another and
            times each from spawn to exit;
``layers``, ``probe``  the traced run (``layers.py``).

The program is imported only through ``api.py`` and only by the roles
that need it, so the ``cold`` launcher stays a few MiB.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from collections import deque
from pathlib import Path


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


def rss_report() -> dict:
    """Peak RSS of this process and of its largest waited-for descendant."""
    return {
        "rss_self_mb": _maxrss_mb(resource.RUSAGE_SELF),
        "rss_child_mb": _maxrss_mb(resource.RUSAGE_CHILDREN),
    }


def digest(image) -> str:
    return hashlib.blake2b(image.tobytes(), digest_size=16).hexdigest()


def build_scene(api, scene: dict):
    volume = api.make_dataset(scene["dataset"], (scene["size"],) * 3)
    if scene["gray_alpha"] is None:
        tf = api.default_tf()
    else:
        tf = api.grayscale_tf(max_alpha=scene["gray_alpha"])
    config = {"dt": scene["dt"]}
    if scene["ert_alpha"] is not None:
        config["ert_alpha"] = scene["ert_alpha"]
    return volume, tf, api.RenderConfig(**config)


def build_renderer(api, scene: dict, volume, tf, config, exec_kw: dict):
    return api.MapReduceVolumeRenderer(
        volume=volume, cluster=scene["gpus"], tf=tf, render_config=config,
        **exec_kw,
    )


def cameras(api, volume, scene: dict, angles) -> list:
    return [
        api.orbit_camera(
            volume.shape, azimuth_deg=az, elevation_deg=el,
            width=scene["image"], height=scene["image"],
        )
        for az, el in angles
    ]


def stream_frames(renderer, cams, bricks_per_gpu: int, on_frame) -> None:
    """Render ``cams`` keeping ``frame_pipeline_depth`` frames in flight;
    call ``on_frame(result, seconds)`` with the interval between
    successive completions.  The clock stops while ``on_frame`` runs, so
    the benchmark's own digesting is not charged to the program."""
    depth = renderer.frame_pipeline_depth
    inflight: deque = deque()
    mark = time.perf_counter()

    def complete_oldest() -> None:
        nonlocal mark
        result = renderer.collect_frame(inflight.popleft())
        on_frame(result, time.perf_counter() - mark)
        mark = time.perf_counter()

    for cam in cams:
        if len(inflight) >= depth:
            complete_oldest()
        inflight.append(renderer.submit_frame(cam, bricks_per_gpu=bricks_per_gpu))
    while inflight:
        complete_oldest()


def role_orbit(plan: dict) -> dict:
    t_start = time.perf_counter()
    import api

    t_imported = time.perf_counter()
    scene = plan["scene"]
    n_warm = plan["n_warmup"]
    volume, tf, config = build_scene(api, scene)
    renderer = build_renderer(api, scene, volume, tf, config, plan["exec"])
    cams = cameras(api, volume, scene, plan["angles"])

    frame_s: list[float] = []
    digests: list[str] = []
    marks: dict = {}
    last = {}

    def on_frame(result, seconds: float) -> None:
        if not frame_s:
            marks["first_frame_wall"] = time.time()
        frame_s.append(seconds)
        digests.append(digest(result.image))
        if len(frame_s) == n_warm:
            marks["setup_done"] = time.perf_counter()
        last["stats"] = result.stats

    with renderer:
        # Warm-up views and the lap as one uninterrupted stream, so a
        # pipelined pool is in steady state when the lap begins.
        stream_frames(renderer, cams, scene["bricks_per_gpu"], on_frame)
        resolved = {
            "kernel": renderer.render_config.kernel,
            "workers": renderer.executor_workers,
            "shuffle_mode": renderer.executor_shuffle_mode,
            "pipeline_depth": renderer.frame_pipeline_depth,
        }
    stats = last["stats"]
    return {
        "import_s": t_imported - t_start,
        "setup_s": marks["setup_done"] - t_imported,
        "cold_first_frame_s": marks["first_frame_wall"] - plan["spawn_wall"],
        "frame_s": frame_s[n_warm:],
        "digests": digests[n_warm:],
        "resolved": resolved,
        "counters": {"samples": stats.n_samples, "fragments": stats.n_pairs_kept},
        **rss_report(),
    }


def role_oracle(plan: dict) -> dict:
    import api

    scene = plan["scene"]
    volume, tf, config = build_scene(api, scene)
    cams = cameras(api, volume, scene, plan["angles"])
    digests = []
    with build_renderer(api, scene, volume, tf, config, {"executor": "inprocess"}) as r:
        for cam in cams:
            image = r.render(cam, bricks_per_gpu=scene["bricks_per_gpu"]).image
            digests.append(digest(image))
        # `image` is the last view's; the single-pass reference renderer
        # shares no bricking, partition, sort or reduce code with it.
        reference = api.render_reference(volume, cams[-1], tf, r.render_config).image
    return {
        "digests": digests,
        "reference_psnr_db": float(api.psnr(image, reference)),
        "environment": api.collect_environment(),
        "usable_cores": api.usable_cores(),
    }


def run_group(argv: list, timeout_s: float, input=None, **popen_kw):
    """``subprocess.run`` in a process group of its own, so that a timeout
    takes the pool workers down with the process that spawned them.
    Returns (returncode or None on timeout, stdout, stderr)."""
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True, **popen_kw,
    )
    try:
        out, err = proc.communicate(input, timeout=timeout_s)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err


def cli_render(argv: list, target: Path, timeout_s: float):
    """One fresh CLI process, spawn to exit: (seconds, PPM digest or an
    error string starting with '!')."""
    t0 = time.perf_counter()
    code, _, err = run_group(argv + ["--out", str(target)], timeout_s)
    seconds = time.perf_counter() - t0
    if code != 0 or not target.is_file():
        return seconds, f"!rc={code} {err[-300:]}"
    data = target.read_bytes()
    target.unlink()
    return seconds, hashlib.blake2b(data, digest_size=16).hexdigest()


def role_cold(plan: dict) -> dict:
    """Launcher that never imports the program.  Set-up is what the
    workload needs before its first timed render: the oracle image (one
    serial-executor CLI render) and one discarded pool render; then
    ``n`` timed fresh pool renders of the same view."""
    target = Path(plan["out_dir"]) / f"cold_{os.getpid()}.ppm"
    give_up = time.perf_counter() + plan["timeout_s"]

    def render(argv):
        # CLI processes get sessions of their own, out of reach of the
        # parent's group kill: never outlive the parent's patience.
        return cli_render(argv, target, max(1.0, give_up - time.perf_counter()))

    t0 = time.perf_counter()
    oracle_s, oracle = render(plan["oracle_argv"])
    _, discarded = render(plan["argv"])
    setup_s = time.perf_counter() - t0
    runs = [render(plan["argv"]) for _ in range(plan["n"])]
    return {
        "setup_s": setup_s,
        "oracle_s": oracle_s,
        "oracle_digest": oracle,
        "discarded_digest": discarded,
        "times_s": [seconds for seconds, _ in runs],
        "digests": [outcome for _, outcome in runs],
        **rss_report(),
    }


def role_layers(plan: dict) -> dict:
    import layers

    return layers.run_layers(plan)


def role_probe(plan: dict) -> dict:
    t_start = time.perf_counter()
    import api  # noqa: F401 - timed: this is `import repro`

    t_imported = time.perf_counter()
    import layers

    return layers.run_probe(plan, t_start, t_imported)


ROLES = {
    "orbit": role_orbit, "oracle": role_oracle, "cold": role_cold,
    "layers": role_layers, "probe": role_probe,
}


def main() -> int:
    plan = json.loads(sys.stdin.read())
    result = ROLES[plan["role"]](plan)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
