"""Workload table, seed -> views, and the estimators of the e2e benchmark.

Nothing here imports the program under test (that is ``api.py``'s job)
and nothing here renders: ``run.py`` plans with these definitions in a
light parent process and hands the resulting plain-JSON plans to
measuring children (``child.py``).
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# The two scenes.  "sparse" is ~85 % empty space with an opaque-ish
# transfer function, so the march dominates and skipping/ERT are active;
# "dense" is translucent with termination off, so nothing is skipped and
# partition/sort/composite carry 3x the fragments through 2x the chunks.
# The image edge is 128 so that a lap takes 4-7 s and a run affords the
# repeats the noise filter needs (README "noise model"); the layers'
# shares of a frame are the same at 128, 192 and 256.
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

# What render_rotation() does for an exec-mode orbit on a pool renderer.
POOL = {
    "executor": "pool", "workers": 2, "reduce_mode": "worker",
    "shuffle_mode": "auto", "pipeline_depth": 2,
}
SERIAL = {"executor": "inprocess"}

# ``lap_s``: what one repeat (a fresh child rendering a lap of V views, or
# one launcher of cold-cli) is charged against ``--seconds``.  It only
# turns ``--seconds`` into a repeat count (see repeats_for), so the
# estimator depends on the arguments and not on the clock.  The pool
# workloads (3 busy processes on 2 cores) feel a noisy neighbour most and
# get half as many repeats again as the serial one.
WORKLOADS = {
    "orbit-serial-sparse": {
        "kind": "orbit", "scene": "sparse", "exec": SERIAL, "lap_s": 7.5,
        "why": "single-process baseline, map ~95% of the frame with skipping "
               "and ERT active: kernel/accel changes show here, parallel/ "
               "changes must not",
    },
    "orbit-pool-sparse": {
        "kind": "orbit", "scene": "sparse", "exec": POOL, "lap_s": 5.0,
        "why": "same scene and views through the 2-worker pool (mesh, worker "
               "reduce, depth 2): pool overhead and pipelining show here and "
               "not on the serial workload",
    },
    "orbit-pool-dense": {
        "kind": "orbit", "scene": "dense", "exec": POOL, "lap_s": 5.0,
        "why": "translucent, no ERT, nothing to skip, 32 chunks and 3x the "
               "fragments: partition/shuffle/sort/composite work shows here, "
               "an accel or ERT gain must not",
    },
    "cold-cli": {
        "kind": "cold", "scene": "sparse", "exec": dict(POOL, pipeline_depth=1),
        "lap_s": 10.0,  # one launcher: set-up plus COLD_CHUNK timed renders
        "why": "fresh `python -m repro render` processes: interpreter, "
               "imports, pool spawn, first-touch caches and teardown, which "
               "the orbit workloads discard as warm-up",
    },
}

V_FULL = 100  # views per lap; the p90 needs ten views beyond it
COLD_CHUNK = 5  # timed CLI renders per cold-cli launcher
ARC = 3  # adjacent views pooled for the tail percentile (see arc_best)
N_WARMUP = 2
ORACLE_STRIDE = 10  # every 10th view is also rendered in-process

# End-to-end metrics: name -> (unit, better, regression bound as a share).
# Every timing carries the largest bound BENCHMARK.json may declare: the
# box is a few cores of a shared host, and the first sizing of this
# benchmark (R = 2) was refused for run-to-run spreads of up to 0.34 on the
# pool workloads; see README "noise model" for what the spreads are now.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "fps": ("1/s", "higher", 0.25),
    "frame_ms_p50": ("ms", "lower", 0.25),
    "frame_ms_p90": ("ms", "lower", 0.25),
    "cold_render_s_p50": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
}

# Per-layer metrics of the traced run:
# name -> (unit, better, end-to-end metric it should move, on which workload).
# Written down before measuring; README.md explains each row.
PER_LAYER = {
    "volume.make_dataset_ms": ("ms", "lower", "setup_s", "all"),
    "volume.extract_ms": ("ms", "lower", "fps", "orbit-*"),
    "render.map_ms": ("ms", "lower", "fps", "orbit-serial-sparse"),
    "render.map_ns_per_sample": ("ns", "lower", "frame_ms_p50", "orbit-serial-sparse"),
    "render.samples": ("count", "lower", "fps", "orbit-*-sparse"),
    "render.fragments": ("count", "lower", "fps", "orbit-pool-dense"),
    "render.map_first_extra_ms": ("ms", "lower", "cold_render_s_p50", "cold-cli"),
    "render.composite_ms": ("ms", "lower", "fps", "orbit-pool-dense"),
    "render.composite_ns_per_fragment": ("ns", "lower", "fps", "orbit-pool-dense"),
    "render.stitch_ms": ("ms", "lower", "fps", "orbit-pool-*"),
    "core.partition_ms": ("ms", "lower", "fps", "orbit-pool-dense"),
    "core.merge_self_ms": ("ms", "lower", "fps", "orbit-pool-dense"),
    "core.sort_ns_per_pair": ("ns", "lower", "fps", "orbit-pool-dense"),
    "core.sort_first_call_ms": ("ms", "lower", "cold_render_s_p50", "cold-cli"),
    "pipeline.construct_ms": ("ms", "lower", "setup_s", "all"),
    "pipeline.render_ms": ("ms", "lower", "fps", "orbit-serial-sparse"),
    "pipeline.overhead_ms": ("ms", "lower", "fps", "orbit-serial-sparse"),
    "pipeline.first_frame_ms": ("ms", "lower", "setup_s", "orbit-serial-sparse"),
    "parallel.first_frame_ms": ("ms", "lower", "cold_render_s_p50", "cold-cli"),
    "parallel.submit_ms": ("ms", "lower", "fps", "orbit-pool-*"),
    "parallel.collect_ms": ("ms", "lower", "fps", "orbit-pool-*"),
    "parallel.frame_ms_depth1": ("ms", "lower", "fps", "orbit-pool-*"),
    "parallel.frame_ms_depth2": ("ms", "lower", "fps", "orbit-pool-*"),
    "parallel.pipeline_gain": ("ratio", "higher", "fps", "orbit-pool-*"),
    "parallel.speedup_vs_serial": ("ratio", "higher", "fps", "orbit-pool-sparse"),
    "parallel.efficiency": ("ratio", "higher", "fps", "orbit-pool-sparse"),
    "parallel.worker_map_ms": ("ms", "lower", "fps", "orbit-pool-*"),
    "parallel.worker_shuffle_ms": ("ms", "lower", "fps", "orbit-pool-dense"),
    "parallel.worker_reduce_ms": ("ms", "lower", "fps", "orbit-pool-dense"),
    "parallel.shuffle_mb": ("MiB", "lower", "fps", "orbit-pool-dense"),
    "parallel.records": ("count", "lower", "fps", "orbit-pool-dense"),
    "parallel.ring_stall_events": ("count", "lower", "frame_ms_p90", "orbit-pool-dense"),
    "parallel.queue_fallbacks": ("count", "lower", "frame_ms_p90", "orbit-pool-dense"),
    "parallel.parent_run_bytes": ("B", "lower", "fps", "orbit-pool-dense"),
    "parallel.close_ms": ("ms", "lower", "cold_render_s_p50", "cold-cli"),
    "cli.import_ms": ("ms", "lower", "cold_render_s_p50", "cold-cli"),
    "cli.cold_serial_ms": ("ms", "lower", "cold_render_s_p50", "cold-cli"),
    "cli.overhead_ms": ("ms", "lower", "cold_render_s_p50", "cold-cli"),
    "observability.trace_overhead_pct": ("%", "lower", "none", "orbit-pool-sparse"),
    "machine.calib_ms": ("ms", "lower", "none", "all"),
}


# -- seed -> inputs ---------------------------------------------------------
def view_angles(seed: int, n_views: int) -> list[tuple[float, float]]:
    """(azimuth, elevation) in degrees of the N_WARMUP warm-up views
    followed by the ``n_views`` lap views.  One full turn at a fixed
    elevation, so a lap costs about the same whatever the seed."""
    rng = np.random.default_rng(seed)
    az0 = float(rng.uniform(0.0, 360.0))
    el = float(rng.uniform(10.0, 30.0))
    return [
        (az0 + 360.0 * i / n_views, el) for i in range(-N_WARMUP, n_views)
    ]


def repeats_for(seconds: float, lap_s: float) -> int:
    """How many repeats ``--seconds`` buys: as many whole laps as fit,
    never fewer than two (a per-view best needs a choice)."""
    return max(2, int(seconds // lap_s))


# -- estimators -------------------------------------------------------------
def per_view_best(repeats: list[list[float]]) -> list[float]:
    """Minimum over repeats of each view's frame time.  Interference on a
    shared box only ever slows a frame, so the minimum converges on the
    program's own cost and leaves the view-dependence intact."""
    if not repeats or any(len(r) != len(repeats[0]) for r in repeats):
        raise ValueError("repeats must be non-empty and of equal length")
    return [min(col) for col in zip(*repeats)]


def arc_best(best: list[float]) -> list[float]:
    """Sliding minimum over ARC adjacent views of the closed orbit.

    The tail percentile is set by the ten slowest views, so one view
    with no undisturbed sample among its repeats moves it.  Neighbours
    are 3.6 degrees apart and cost within ~2 % of each other, so the arc
    a view sits in gives it ARC times the samples."""
    n = len(best)
    reach = range(-(ARC // 2), ARC - ARC // 2)
    return [min(best[(i + d) % n] for d in reach) for i in range(n)]


def tail_percentile(values: list[float], q: float) -> tuple[float, float]:
    """Nearest-rank ``q``-th percentile, lowered until at least ten
    samples lie beyond it (never below the median).  Returns the value
    and the percentile actually used."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    index = min(math.ceil(q * n / 100.0) - 1, n - 11)
    if index <= (n - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / n


def frame_metrics(best: list[float]) -> dict:
    """fps / p50 / p90 of one lap's per-view best frame times (seconds);
    the p90 is taken over the views' arc bests."""
    p90, q_used = tail_percentile(arc_best(best), 90.0)
    return {
        "fps": len(best) / sum(best),
        "frame_ms_p50": 1e3 * statistics.median(best),
        "frame_ms_p90": 1e3 * p90,
        "p90_percentile_used": q_used,
    }


def layer_views(n_views: int, k: int) -> list[int]:
    """Indices of ``k`` evenly spaced views of an ``n_views`` lap."""
    return [i * n_views // k for i in range(k)]


def failed_frames(laps: list, expected: dict, leaky: set) -> tuple[int, list[int]]:
    """Count failed frames of an orbit workload.

    ``laps[repeat][view]`` is an image digest, ``expected[view]`` the
    in-process oracle's digest of the sampled views, ``leaky`` the
    repeats whose child left a shm segment or socket file behind.  A
    view is bad when its repeats and its oracle do not all agree; every
    frame of a bad view or of a leaky repeat fails.  Returns (failed
    frames, bad views)."""
    bad = [
        v for v in range(len(laps[0]))
        if len({lap[v] for lap in laps} | {expected.get(v, laps[0][v])}) > 1
    ]
    failed = sum(
        len(lap) if repeat in leaky else len(bad) for repeat, lap in enumerate(laps)
    )
    return failed, bad


def spread(values: list[float]) -> float:
    """(max - min) / median: the run-to-run range as a share."""
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else math.inf


# -- BENCHMARK.json ---------------------------------------------------------
def load_benchmark_json() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())
