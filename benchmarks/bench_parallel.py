#!/usr/bin/env python
"""Scaling sweep of the shared-memory pool executor.

Renders a multi-brick orbit end to end (real ray casting, real
partition/sort/reduce, real images) through
:class:`~repro.parallel.SharedMemoryPoolExecutor` across a
``workers × reduce_mode × shuffle_mode × pipeline_depth`` grid and
records sustained frame throughput into a JSON report (default:
``BENCH_parallel.json`` at the repo root).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py \
        [--out BENCH_parallel.json] [--workers 1,2,4,8] \
        [--reduce-modes parent,worker] [--shuffle-modes parent,mesh,tcp] \
        [--depths 1,2] [--size 48] [--gpus 8] [--frames 6] [--image 160]

The report records the machine's usable core count alongside every
row: speedup over the 1-worker pool is bounded by the cores actually
available (a 1-core container time-slices all workers and shows ~1×
regardless of pool size), so read ``speedup_vs_1_worker`` against
``cpu_count``.  ``reduce_mode="worker"`` moves Sort+Reduce onto the
owning workers (the paper's symmetric layout); ``shuffle_mode="mesh"``
exchanges fragment runs worker↔worker over direct shared-memory edge
rings so the parent never touches run bytes (each mesh row asserts
``parent_run_bytes == 0`` and records the per-frame mesh backpressure
counters); ``shuffle_mode="tcp"`` carries the same exchange over
socket streams (the multi-host plane — strictly slower than shm on one
box, measured to quantify exactly that cost, and asserting the same
``parent_run_bytes == 0`` structurally); ``pipeline_depth=2``
double-buffers frames so workers map+reduce frame *k+1* while the
parent stitches frame *k* — all of which need >1 real core to pay off.
The direct planes only materialize under worker-side reduce (with a
parent reduce every run's destination *is* the parent), so mesh/tcp ×
parent-reduce combinations are skipped as duplicates.  The in-process
executor is measured too, as the no-pool baseline, and every pool
render is checked bitwise against it.
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
        renderer, n_frames=1, mode="exec", width=image, height=image
    )
    t0 = time.perf_counter()
    rot = render_rotation(
        renderer,
        n_frames=frames,
        mode="exec",
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
    ap.add_argument("--reduce-modes", default="parent,worker",
                    help="comma-separated reduce placements to sweep")
    ap.add_argument("--shuffle-modes", default="parent,mesh",
                    help="comma-separated shuffle planes to sweep — "
                         "parent, mesh, and/or tcp (direct-plane rows "
                         "only materialize under worker-side reduce; "
                         "add tcp to quantify the socket plane's cost "
                         "vs shm on one box)")
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
    sweep_modes = [m.strip() for m in args.reduce_modes.split(",") if m.strip()]
    sweep_shuffles = [
        s.strip() for s in args.shuffle_modes.split(",") if s.strip()
    ]
    sweep_depths = [int(d) for d in args.depths.split(",") if d]
    for m in sweep_modes:
        if m not in ("parent", "worker"):
            ap.error(f"unknown reduce mode {m!r}")
    for s in sweep_shuffles:
        if s not in ("parent", "mesh", "tcp"):
            ap.error(f"unknown shuffle mode {s!r}")

    vol = make_dataset("skull", (args.size,) * 3)
    cfg = RenderConfig(dt=0.75)

    def make_renderer(**kw):
        return MapReduceVolumeRenderer(
            volume=vol, cluster=args.gpus, render_config=cfg, **kw
        )

    # Baseline: serial in-process executor (also the correctness oracle).
    base = make_renderer()
    base_fps, base_s, base_rot = orbit_fps(
        base, args.frames, args.image, keep_images=True
    )
    print(f"inprocess baseline: {base_fps:6.2f} FPS  ({base_s:.2f}s "
          f"for {args.frames} frames, {base_rot.results[0].n_bricks} bricks)")

    rows = []
    # (reduce, shuffle, depth) -> 1-worker fps, the scaling anchor
    fps_one_worker = {}
    for mode, shuffle, depth, w in itertools.product(
        sweep_modes, sweep_shuffles, sweep_depths, sweep_workers
    ):
        if shuffle in ("mesh", "tcp") and mode == "parent":
            # With a parent-side reduce every run's destination is the
            # parent; the direct plane never materializes and the row
            # would duplicate the parent-plane measurement.
            continue
        with make_renderer(
            executor="pool", workers=w, reduce_mode=mode,
            shuffle_mode=shuffle, pipeline_depth=depth,
        ) as r:
            fps, elapsed, rot = orbit_fps(
                r, args.frames, args.image, keep_images=True
            )
        assert len(rot.images) == len(base_rot.images)
        for img_pool, img_base in zip(rot.images, base_rot.images):
            assert np.array_equal(img_pool, img_base), "pool image diverged"
        if w == 1:
            fps_one_worker[(mode, shuffle, depth)] = fps
        ring = rot.results[-1].stats.ring or {}
        if shuffle == "mesh" and mode == "worker":
            # The control-plane guarantee the mesh exists for: the
            # parent never touches a run byte — except records too big
            # for their edge, which take the *designed* queue-fallback
            # escape hatch (counted); only fallback-free frames must be
            # parent-clean.
            if ring.get("queue_fallbacks", 0) == 0:
                assert ring.get("parent_run_bytes") == 0, (
                    "mesh shuffle leaked run bytes through the parent "
                    "without a queue fallback: "
                    f"{ring.get('parent_run_bytes')}"
                )
        elif shuffle == "tcp" and mode == "worker":
            # Streams have no capacity cliff and therefore no fallback
            # escape hatch: the parent-clean guarantee is unconditional.
            assert ring.get("queue_fallbacks", 0) == 0, (
                "tcp shuffle reported a queue fallback, which the plane "
                "does not have"
            )
            assert ring.get("parent_run_bytes") == 0, (
                "tcp shuffle leaked run bytes through the parent: "
                f"{ring.get('parent_run_bytes')}"
            )
        rows.append(
            {
                "workers": w,
                "reduce_mode": mode,
                "shuffle_mode": ring.get("shuffle_mode", shuffle),
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
                "wire_bytes_total": ring.get("wire_bytes_total", 0),
            }
        )
        print(f"pool workers={w} reduce={mode} shuffle={shuffle} "
              f"depth={depth}: {fps:6.2f} FPS  ({elapsed:.2f}s, "
              f"{fps / base_fps:.2f}x vs inprocess)")
    for row in rows:
        ref = fps_one_worker.get(
            (row["reduce_mode"], row["shuffle_mode"], row["pipeline_depth"])
        )
        if ref:
            row["speedup_vs_1_worker"] = round(row["fps"] / ref, 3)

    # Recovery smoke row: one orbit with a deterministically injected
    # worker crash.  Not a scaling measurement — it records what a
    # failure *costs* (respawn latency, frames re-executed, FPS under
    # recovery) and re-asserts the recovered images stay bitwise equal
    # to the serial baseline.
    fault_smoke = None
    if args.fault_plan and args.fault_plan.lower() != "none":
        f_workers = min(2, max(sweep_workers)) if sweep_workers else 2
        f_mode = "worker" if "worker" in sweep_modes else sweep_modes[0]
        f_shuffle = (
            "mesh"
            if "mesh" in sweep_shuffles and f_mode == "worker"
            else "parent"
        )
        with make_renderer(
            executor="pool", workers=f_workers, reduce_mode=f_mode,
            shuffle_mode=f_shuffle, fault_plan=args.fault_plan,
        ) as r:
            fps, elapsed, rot = orbit_fps(
                r, args.frames, args.image, keep_images=True
            )
            snap = r._exec_instance._supervisor.snapshot()
        for img_pool, img_base in zip(rot.images, base_rot.images):
            assert np.array_equal(img_pool, img_base), (
                "recovered pool image diverged from the serial baseline"
            )
        assert snap["respawns"] >= 1, (
            f"fault plan {args.fault_plan!r} never fired during the orbit"
        )
        fault_smoke = {
            "fault_plan": args.fault_plan,
            "workers": f_workers,
            "reduce_mode": f_mode,
            "shuffle_mode": f_shuffle,
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
        print(f"fault smoke [{args.fault_plan}] workers={f_workers} "
              f"reduce={f_mode} shuffle={f_shuffle}: {fps:6.2f} FPS, "
              f"{snap['respawns']} respawn(s), "
              f"{snap['respawn_seconds'] * 1e3:.1f} ms from spawn to the "
              f"replayed maps sealed, "
              f"{snap['frames_reexecuted']} frame(s) re-executed")

    report = {
        "benchmark": "shared-memory pool executor scaling sweep "
                     "(workers x reduce_mode x shuffle_mode x pipeline_depth)",
        "cpu_count": usable_cores(),
        "note": (
            "speedup is bounded by cpu_count: on a single-core machine all "
            "pool sizes time-slice one core and stay near 1x; worker-side "
            "reduce, the direct shuffle planes, and pipeline_depth>1 "
            "likewise need real cores to pay off.  mesh and tcp rows carry "
            "parent_run_bytes_last_frame=0 by construction (runs travel "
            "worker-to-worker edge rings or socket streams, never the "
            "parent); direct-plane x parent-reduce combos are skipped as "
            "duplicates of the parent plane.  tcp rows quantify the socket "
            "plane's cost vs shm on one box (wire_bytes_total counts "
            "headers + payload on the wire)"
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
