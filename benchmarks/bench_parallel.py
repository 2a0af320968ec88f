#!/usr/bin/env python
"""Scaling sweep of the shared-memory pool executor.

Renders a multi-brick orbit end to end (real ray casting, real
partition/sort/reduce, real images) through the in-process executor
and through :class:`~repro.parallel.SharedMemoryPoolExecutor` across a
``workers × pipeline_depth`` grid, and records sustained frame
throughput into a JSON report (default: ``BENCH_parallel.json`` at the
repo root).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py \
        [--out BENCH_parallel.json] [--workers 1,2,4,8] [--depths 1,2] \
        [--size 48] [--gpus 8] [--frames 6] [--image 160]

The pool has one data path: map on the workers, fragment exchange over
the shared-memory edge mesh, Sort+Reduce on the worker that owns each
partition.  The report records the process's usable core count
(``usable_cores``): speedup is bounded by the cores actually available
(pool sizes beyond it time-slice), and ``pipeline_depth=2`` — workers
map+reduce frame *k+1* while the parent stitches frame *k* — needs
spare cores to pay off too.  The in-process executor is the first row,
the no-pool baseline, and every pool render is checked bitwise against
it.  Each pool row asserts that the parent touched no run byte unless
a record outgrew its edge (``parent_run_bytes == 0`` whenever
``queue_fallbacks == 0``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import MapReduceVolumeRenderer, RenderConfig, make_dataset  # noqa: E402
from repro.bench.results import collect_environment  # noqa: E402
from repro.parallel import usable_cores  # noqa: E402
from repro.pipeline import render_rotation  # noqa: E402


def orbit_fps(renderer, frames, image, keep_images=False):
    """Sustained wall-clock FPS over one orbit (after a warmup frame)."""
    # Warmup: publishes the arena, spawns workers, fills accel caches.
    warm = render_rotation(
        renderer, n_frames=1, width=image, height=image
    )
    t0 = time.perf_counter()
    rot = render_rotation(
        renderer,
        n_frames=frames,
        width=image,
        height=image,
        keep_images=keep_images,
    )
    elapsed = time.perf_counter() - t0
    del warm
    return frames / elapsed, elapsed, rot


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_parallel.json"))
    ap.add_argument("--workers", default="1,2,4,8",
                    help="comma-separated pool sizes to sweep")
    ap.add_argument("--depths", default="1,2",
                    help="comma-separated pipeline depths to sweep")
    ap.add_argument("--size", type=int, default=48, help="cubic volume edge")
    ap.add_argument("--gpus", type=int, default=8,
                    help="simulated GPU count (drives brick count/placement)")
    ap.add_argument("--frames", type=int, default=6, help="orbit frames per row")
    ap.add_argument("--image", type=int, default=160, help="image edge (pixels)")
    ap.add_argument("--fault-plan", default="crash@map:worker=0,frame=2",
                    help="fault plan for the recovery smoke row (see "
                         "repro.parallel.faults); 'none' skips the row")
    args = ap.parse_args(argv)
    sweep_workers = [int(w) for w in args.workers.split(",") if w]
    sweep_depths = [int(d) for d in args.depths.split(",") if d]

    vol = make_dataset("skull", (args.size,) * 3)
    cfg = RenderConfig(dt=0.75)

    def make_renderer(**kw):
        return MapReduceVolumeRenderer(
            volume=vol, cluster=args.gpus, render_config=cfg, **kw
        )

    # Baseline: the in-process executor (also the correctness oracle).
    base = make_renderer()
    base_fps, base_s, base_rot = orbit_fps(
        base, args.frames, args.image, keep_images=True
    )
    print(f"inprocess baseline: {base_fps:6.2f} FPS  ({base_s:.2f}s "
          f"for {args.frames} frames, {base_rot.results[0].n_bricks} bricks)")

    rows = [
        {
            "executor": "inprocess",
            "workers": None,
            "pipeline_depth": None,
            "frames": args.frames,
            "elapsed_s": round(base_s, 4),
            "fps": round(base_fps, 3),
            "speedup_vs_inprocess": 1.0,
            "speedup_vs_1_worker": None,
        }
    ]
    fps_one_worker = {}  # depth -> 1-worker fps, the scaling anchor
    for depth, w in itertools.product(sweep_depths, sweep_workers):
        with make_renderer(
            executor="pool", workers=w, pipeline_depth=depth
        ) as r:
            fps, elapsed, rot = orbit_fps(
                r, args.frames, args.image, keep_images=True
            )
        assert len(rot.images) == len(base_rot.images)
        for img_pool, img_base in zip(rot.images, base_rot.images):
            assert np.array_equal(img_pool, img_base), "pool image diverged"
        if w == 1:
            fps_one_worker[depth] = fps
        ring = rot.results[-1].stats.ring or {}
        # The control-plane guarantee the mesh exists for: the parent
        # never touches a run byte — except records too big for their
        # edge, which take the designed queue-fallback escape hatch
        # (counted); only fallback-free frames must be parent-clean.
        if ring.get("queue_fallbacks", 0) == 0:
            assert ring.get("parent_run_bytes") == 0, (
                "mesh shuffle leaked run bytes through the parent without "
                f"a queue fallback: {ring.get('parent_run_bytes')}"
            )
        rows.append(
            {
                "executor": "pool",
                "workers": w,
                "pipeline_depth": depth,
                "frames": args.frames,
                "elapsed_s": round(elapsed, 4),
                "fps": round(fps, 3),
                "speedup_vs_inprocess": round(fps / base_fps, 3),
                "speedup_vs_1_worker": None,  # filled below
                "ring_stall_s_last_frame": round(
                    ring.get("stall_seconds", 0.0), 6
                ),
                "ring_high_water_bytes": ring.get("high_water_bytes", 0),
                "queue_fallbacks_last_frame": ring.get("queue_fallbacks", 0),
                "parent_run_bytes_last_frame": ring.get("parent_run_bytes", 0),
                "mesh_bytes_total": ring.get("mesh_bytes_total", 0),
            }
        )
        print(f"pool workers={w} depth={depth}: {fps:6.2f} FPS  "
              f"({elapsed:.2f}s, {fps / base_fps:.2f}x vs inprocess)")
    for row in rows[1:]:
        ref = fps_one_worker.get(row["pipeline_depth"])
        if ref:
            row["speedup_vs_1_worker"] = round(row["fps"] / ref, 3)

    # Recovery smoke row: one orbit with a deterministically injected
    # worker crash.  Not a scaling measurement — it records what a
    # failure *costs* (respawn latency, frames re-executed, FPS under
    # recovery) and re-asserts the recovered images stay bitwise equal
    # to the in-process baseline.
    fault_smoke = None
    if args.fault_plan and args.fault_plan.lower() != "none":
        f_workers = min(2, max(sweep_workers)) if sweep_workers else 2
        with make_renderer(
            executor="pool", workers=f_workers, fault_plan=args.fault_plan,
        ) as r:
            fps, elapsed, rot = orbit_fps(
                r, args.frames, args.image, keep_images=True
            )
            snap = r._exec_instance._supervisor.snapshot()
        for img_pool, img_base in zip(rot.images, base_rot.images):
            assert np.array_equal(img_pool, img_base), (
                "recovered pool image diverged from the in-process baseline"
            )
        assert snap["respawns"] >= 1, (
            f"fault plan {args.fault_plan!r} never fired during the orbit"
        )
        fault_smoke = {
            "fault_plan": args.fault_plan,
            "workers": f_workers,
            "frames": args.frames,
            "fps_under_recovery": round(fps, 3),
            "failures": snap["failures"],
            "respawns": snap["respawns"],
            "respawn_latency_s": round(snap["respawn_seconds"], 4),
            "frames_reexecuted": snap["frames_reexecuted"],
            "retries_by_stage": snap["retries_by_stage"],
            "degraded_events": snap["degraded_events"],
            "serial_fallback": snap["serial_fallback"],
        }
        print(f"fault smoke [{args.fault_plan}] workers={f_workers}: "
              f"{fps:6.2f} FPS, {snap['respawns']} respawn(s), "
              f"{snap['respawn_seconds'] * 1e3:.1f} ms from spawn to the "
              f"replayed maps sealed, "
              f"{snap['frames_reexecuted']} frame(s) re-executed")

    report = {
        "benchmark": "shared-memory pool executor scaling sweep "
                     "(in-process baseline, then workers x pipeline_depth)",
        "usable_cores": usable_cores(),
        "note": (
            "speedup is bounded by usable_cores: pool sizes beyond it "
            "time-slice the same cores, and pipeline_depth>1 needs spare "
            "cores to overlap frames.  Pool rows carry "
            "parent_run_bytes_last_frame=0 unless a record outgrew its "
            "mesh edge (queue_fallbacks_last_frame > 0)"
        ),
        "params": {
            "dataset": "skull",
            "volume": [args.size] * 3,
            "gpus_simulated": args.gpus,
            "bricks": base_rot.results[0].n_bricks,
            "frames": args.frames,
            "image": [args.image, args.image],
            "dt": cfg.dt,
        },
        "inprocess_fps": round(base_fps, 3),
        "results": rows,
        "fault_smoke": fault_smoke,
        "environment": collect_environment(),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
