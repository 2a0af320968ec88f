"""Command-line interface.

Usage::

    python -m repro render --dataset skull --size 48 --gpus 4 --out skull.ppm
    python -m repro figure fig3_breakdown_small
    python -m repro info

`render` runs the functional pipeline (small volumes) and reports its
measured wall clock; it imports no simulator code.  `figure` prints one
of the paper's results exactly as ``tests/golden/paper_figures.json``
pins it (no name lists them all; see :mod:`repro.sim.figures`).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Multi-GPU volume rendering using MapReduce (Stuart et al. 2010)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("render", help="render a frame through the full pipeline")
    r.add_argument("--dataset", default="skull", choices=["skull", "supernova", "plume"])
    r.add_argument("--size", type=int, default=48, help="cubic volume edge (voxels)")
    r.add_argument("--gpus", type=int, default=4)
    r.add_argument("--image", type=int, default=256, help="image edge (pixels)")
    r.add_argument("--azimuth", type=float, default=30.0)
    r.add_argument("--elevation", type=float, default=20.0)
    r.add_argument("--dt", type=float, default=0.5)
    r.add_argument("--shading", action="store_true", help="gradient Phong shading")
    r.add_argument("--auto-tf", action="store_true", help="histogram-derived transfer function")
    r.add_argument("--executor", default="inprocess", choices=["inprocess", "pool"],
                   help="functional backend: serial in-process, or the "
                        "shared-memory multiprocess pool")
    r.add_argument("--workers", type=int, default=None,
                   help="pool worker processes (default: one per simulated "
                        "GPU, capped to the machine's cores)")
    r.add_argument("--reduce-mode", default=None,
                   help="where the pool executor runs Sort+Reduce; only "
                        "'worker' (the default) remains: each partition is "
                        "reduced on the worker that owns it.  Kept only "
                        "until the benchmark harness stops passing it")
    r.add_argument("--fault-plan", default=None,
                   help="deterministic fault injection for pool workers, "
                        "e.g. 'crash@map:worker=1,frame=2' or "
                        "'stall(5)@reduce;exit(3)@shuffle-out:chunk=0', "
                        "to exercise the pool's always-on recovery "
                        "(testing hook; see repro.parallel.faults)")
    r.add_argument("--accel", default="table", choices=["table", "off"],
                   help="empty-space skipping: 'table' probes a per-voxel "
                        "corner-max table before each gather and marches "
                        "only the part of each brick its occupied cells "
                        "span (default), 'off' disables both; the image is "
                        "bitwise-identical either way")
    r.add_argument("--trace-out", default=None, metavar="TRACE.json",
                   help="record a span timeline of the render (publish, "
                        "per-chunk map, shuffle, per-partition reduce, "
                        "stitch, respawns, ring stalls) and write it as "
                        "Chrome/Perfetto trace-event JSON: one track per "
                        "pool worker plus the parent; load it at "
                        "ui.perfetto.dev or chrome://tracing.  Tracing is "
                        "off (and costs nothing) without this flag")
    r.add_argument("--stats-json", default=None, metavar="STATS.json",
                   help="dump the frame's JobStats — including its "
                        "telemetry document (ring backpressure, "
                        "recovery ledger, arena publish bytes, accel-cache "
                        "hit rates) — as JSON")
    r.add_argument("--out", default="render.ppm")
    r.set_defaults(usage_error=r.error)

    f = sub.add_parser("figure", help="print a pinned paper figure "
                                      "(simulated cluster); no name lists them")
    f.add_argument("name", nargs="?", help="a figure of repro.sim.figures.FIGURES")

    sub.add_parser("info", help="package / model configuration summary")
    return p


def _cmd_render(args) -> int:
    from . import (
        MapReduceVolumeRenderer,
        RenderConfig,
        default_tf,
        make_dataset,
        orbit_camera,
        write_ppm,
    )
    from .volume.histogram import auto_transfer_function

    try:
        volume = make_dataset(args.dataset, (args.size,) * 3)
        tf = auto_transfer_function(volume) if args.auto_tf else default_tf()
        camera = orbit_camera(
            volume.shape,
            azimuth_deg=args.azimuth,
            elevation_deg=args.elevation,
            width=args.image,
            height=args.image,
        )
        renderer = MapReduceVolumeRenderer(
            volume=volume,
            cluster=args.gpus,
            tf=tf,
            render_config=RenderConfig(
                dt=args.dt,
                shading=args.shading,
                accel=args.accel,
            ),
            executor=args.executor,
            workers=args.workers,
            reduce_mode=args.reduce_mode,
            fault_plan=args.fault_plan,
        )
    except ValueError as exc:  # a flag value the parser could not check
        args.usage_error(str(exc))
    tracer = None
    if args.trace_out:
        # Installed before the first frame so worker processes fork (or
        # are told to trace) with tracing already decided, and the
        # publish of the very first arena is on the timeline too.
        from .observability import enable_tracing

        tracer = enable_tracing()
    with renderer:
        t0 = time.perf_counter()
        result = renderer.render(camera)
        frame_s = time.perf_counter() - t0
        backend = args.executor
        recovery_lines = []
        if backend == "pool":
            backend = (f"pool ({renderer.executor_workers} workers, "
                       f"{renderer.executor_shuffle_mode} shuffle)")
            recovery_lines = renderer.executor_recovery_summary
    write_ppm(args.out, result.image)
    print(f"rendered {args.dataset} {volume.resolution_label()} on "
          f"{args.gpus} simulated GPUs ({result.n_bricks} bricks, "
          f"{backend} executor) -> {args.out}")
    print(f"frame wall-clock: {frame_s:.4f}s (measured)")
    for line in recovery_lines:
        print(f"recovery: {line}")
    if tracer is not None:
        from .observability import (
            disable_tracing,
            stage_summary_line,
            write_chrome_trace,
        )

        summary = stage_summary_line(tracer)
        if summary:
            print(f"measured stages: {summary}")
        n_events = write_chrome_trace(args.trace_out, tracer)
        disable_tracing()
        print(f"trace: {n_events} events -> {args.trace_out} "
              f"(open at ui.perfetto.dev)")
    if args.stats_json:
        import json

        from .observability.timeline import json_default

        with open(args.stats_json, "w") as fh:
            json.dump(
                result.stats.as_dict(include_telemetry=True),
                fh,
                indent=2,
                default=json_default,
            )
        print(f"stats: {args.stats_json}")
    return 0


def _cmd_figure(args) -> int:
    import json

    from .sim.figures import FIGURES, figure

    if args.name is None:
        for name, (fn, kwargs) in FIGURES.items():
            call = ", ".join(f"{k}={v!r}" for k, v in kwargs.items())
            print(f"{name}: {fn.__name__}({call})")
        return 0
    if args.name not in FIGURES:
        print(f"repro figure: unknown figure {args.name!r}; known: "
              f"{', '.join(FIGURES)}", file=sys.stderr)
        return 2
    value = figure(args.name)
    if isinstance(value, str):
        print(value, end="")
    else:
        print(json.dumps(value, indent=1, sort_keys=True))
    return 0


def _cmd_info(args) -> int:
    import numpy

    from . import __version__
    from .sim import CPUSpec, DiskSpec, GPUSpec, NetworkSpec, PCIeSpec

    print(f"repro {__version__} (numpy {numpy.__version__})")
    print(f"GPU model:     {GPUSpec()}")
    print(f"CPU model:     {CPUSpec()}")
    print(f"PCIe model:    {PCIeSpec()}")
    print(f"Disk model:    {DiskSpec()}")
    print(f"Network model: {NetworkSpec()}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "render": _cmd_render,
        "figure": _cmd_figure,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
