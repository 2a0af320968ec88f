"""Command-line interface.

Usage::

    python -m repro render --dataset skull --size 48 --gpus 4 --out skull.ppm
    python -m repro sweep --figure fig3 --sizes 128,256 --gpus 1,8,32
    python -m repro analyze --size 1024
    python -m repro info

`render` runs the functional pipeline (small volumes); `sweep` and
`analyze` run the simulated figure experiments at paper scale.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


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
    r.add_argument("--reduce-mode", default="parent", choices=["parent", "worker"],
                   help="where the pool executor runs Sort+Reduce: in the "
                        "parent (default), or on the worker owning each "
                        "partition, which ships back composited pixel spans "
                        "(bitwise-identical output either way)")
    r.add_argument("--pipeline-depth", type=int, default=1,
                   help="frames the pool executor keeps in flight for orbit "
                        "rendering: 1 = synchronous, 2 = double-buffered "
                        "(workers map+reduce the next frame while the parent "
                        "stitches the current one)")
    r.add_argument("--shuffle-mode", default="auto",
                   choices=["auto", "parent", "mesh", "tcp"],
                   help="shuffle plane for the pool executor: 'parent' "
                        "routes fragment runs through the parent, 'mesh' "
                        "exchanges them worker-to-worker over direct "
                        "shared-memory edge rings (the parent becomes a "
                        "pure control plane), 'tcp' streams the same "
                        "records worker-to-worker over AF_UNIX/TCP "
                        "sockets (the multi-host plane; requires "
                        "--reduce-mode worker), 'auto' picks mesh "
                        "whenever the reduce runs on workers; the image "
                        "is bitwise-identical on every plane")
    r.add_argument("--host-spec", default=None,
                   help="socket-plane host placement (tcp shuffle only): "
                        "an int spreads workers round-robin over that "
                        "many simulated hosts; a comma-separated list "
                        "like '0,0,1,1' assigns each worker a host id. "
                        "Host 0 holds the shared-memory arena; workers "
                        "on other hosts get chunk payloads over the "
                        "wire instead of attaching the arena")
    r.add_argument("--pin-workers", action="store_true",
                   help="pin each pool worker to its own core "
                        "(os.sched_setaffinity) before it allocates its "
                        "inbound mesh rings; warns and no-ops when "
                        "affinity is unavailable or cores < workers")
    r.add_argument("--supervise", dest="supervise", action="store_true",
                   default=True,
                   help="recover pool infrastructure failures in place: "
                        "respawn dead/wedged workers, re-execute in-flight "
                        "frames bitwise-identically, and degrade (fewer "
                        "workers, then serial) when retries are exhausted "
                        "(default)")
    r.add_argument("--no-supervise", dest="supervise", action="store_false",
                   help="disable supervision: any pool failure tears the "
                        "pool down and propagates (the legacy fail-fast "
                        "behaviour)")
    r.add_argument("--max-frame-retries", type=int, default=None,
                   help="recovery attempts per frame at each pool width "
                        "before the supervisor degrades the pool "
                        "(default $REPRO_MAX_FRAME_RETRIES or 2)")
    r.add_argument("--fault-plan", default=None,
                   help="deterministic fault injection for pool workers, "
                        "e.g. 'crash@map:worker=1,frame=2' or "
                        "'stall(5)@reduce;exit(3)@shuffle-out:chunk=0' "
                        "(testing/bench hook; see repro.parallel.faults)")
    r.add_argument("--accel", default="table", choices=["table", "grid", "off"],
                   help="empty-space skipping: 'table' probes a per-voxel "
                        "corner-max table before each gather and marches "
                        "only the part of each brick its occupied cells "
                        "span (default; 'grid' is an old spelling of it), "
                        "'off' disables both; the image is "
                        "bitwise-identical either way")
    r.add_argument("--kernel", default="auto",
                   choices=["auto", "numpy", "numba"],
                   help="march-kernel backend: 'numba' JIT-compiles the "
                        "per-ray march loop (needs the numba package), "
                        "'numpy' is the vectorized reference, 'auto' picks "
                        "numba when importable and falls back to numpy "
                        "with a warning (default)")
    r.add_argument("--trace-out", default=None, metavar="TRACE.json",
                   help="record a span timeline of the render (publish, "
                        "per-chunk map, shuffle, per-partition reduce, "
                        "stitch, respawns, ring stalls) and write it as "
                        "Chrome/Perfetto trace-event JSON: one track per "
                        "pool worker plus the parent; load it at "
                        "ui.perfetto.dev or chrome://tracing.  Tracing is "
                        "off (and costs nothing) without this flag")
    r.add_argument("--stats-json", default=None, metavar="STATS.json",
                   help="dump the frame's JobStats — including the "
                        "unified telemetry registry (ring backpressure, "
                        "recovery ledger, arena publish bytes, accel-cache "
                        "hit rates) — as JSON")
    r.add_argument("--out", default="render.ppm")

    s = sub.add_parser("sweep", help="regenerate a paper figure (simulated cluster)")
    s.add_argument("--figure", default="fig3", choices=["fig3", "fig4"])
    s.add_argument("--dataset", default="skull", choices=["skull", "supernova", "plume"])
    s.add_argument("--sizes", type=_int_list, default=[128, 256, 512, 1024])
    s.add_argument("--gpus", type=_int_list, default=[1, 2, 4, 8, 16, 32])

    a = sub.add_parser("analyze", help="§6.3 compute-vs-communication analysis")
    a.add_argument("--size", type=int, default=1024)
    a.add_argument("--dataset", default="skull", choices=["skull", "supernova", "plume"])

    o = sub.add_parser("rotate", help="simulate an interactive orbit (FPS report)")
    o.add_argument("--dataset", default="skull", choices=["skull", "supernova", "plume"])
    o.add_argument("--size", type=int, default=256)
    o.add_argument("--gpus", type=int, default=8)
    o.add_argument("--frames", type=int, default=8)
    o.add_argument("--image", type=int, default=512)
    o.add_argument("--no-resident", action="store_true",
                   help="stream bricks every frame instead of caching them")

    rep = sub.add_parser(
        "report",
        help="benchmark regression report over committed BENCH_*.json",
    )
    rep.add_argument("--kernels", default="BENCH_kernels.json",
                     help="current pytest-benchmark kernel document "
                          "(default: the committed BENCH_kernels.json)")
    rep.add_argument("--baseline", default="BENCH_kernels_seed.json",
                     help="baseline kernel document to compare against "
                          "(default: the committed seed)")
    rep.add_argument("--previous", default=None,
                     help="optional previous-PR kernel document for a "
                          "three-way comparison")
    rep.add_argument("--parallel", default="BENCH_parallel.json",
                     help="pool scaling sweep document summarised in the "
                          "report (skipped when missing)")
    rep.add_argument("--check", action="store_true",
                     help="exit non-zero if any kernel mean regressed "
                          "past --threshold vs the baseline (the CI gate)")
    rep.add_argument("--threshold", type=float, default=0.15,
                     help="allowed fractional slowdown before --check "
                          "fails (default 0.15 = 15%%)")

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

    tracer = None
    if args.trace_out:
        # Installed before the renderer exists so worker processes fork
        # (or are told to trace) with tracing already decided, and the
        # publish of the very first arena is on the timeline too.
        from .observability import enable_tracing

        tracer = enable_tracing()

    volume = make_dataset(args.dataset, (args.size,) * 3)
    tf = auto_transfer_function(volume) if args.auto_tf else default_tf()
    camera = orbit_camera(
        volume.shape,
        azimuth_deg=args.azimuth,
        elevation_deg=args.elevation,
        width=args.image,
        height=args.image,
    )
    with MapReduceVolumeRenderer(
        volume=volume,
        cluster=args.gpus,
        tf=tf,
        render_config=RenderConfig(
            dt=args.dt,
            shading=args.shading,
            accel=args.accel,
            kernel=args.kernel,
        ),
        executor=args.executor,
        workers=args.workers,
        reduce_mode=args.reduce_mode,
        pipeline_depth=args.pipeline_depth,
        shuffle_mode=args.shuffle_mode,
        host_spec=args.host_spec,
        pin_workers=args.pin_workers,
        supervise=args.supervise,
        max_frame_retries=args.max_frame_retries,
        fault_plan=args.fault_plan,
    ) as renderer:
        result = renderer.render(camera, mode="both")
        backend = args.executor
        recovery_lines = []
        if backend == "pool":
            backend = (f"pool ({renderer.executor_workers} workers, "
                       f"{args.reduce_mode} reduce, "
                       f"{renderer.executor_shuffle_mode} shuffle)")
            recovery_lines = renderer.executor_recovery_summary
    write_ppm(args.out, result.image)
    sb = result.outcome.breakdown
    print(f"rendered {args.dataset} {volume.resolution_label()} on "
          f"{args.gpus} simulated GPUs ({result.n_bricks} bricks, "
          f"{backend} executor) -> {args.out}")
    print(f"simulated stages: map={sb.map:.4f}s partition+io={sb.partition_io:.4f}s "
          f"sort={sb.sort:.4f}s reduce={sb.reduce:.4f}s total={sb.total:.4f}s")
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


def _cmd_sweep(args) -> int:
    from .bench import fig3_breakdown, fig4_scaling, format_table

    if args.figure == "fig3":
        rows = fig3_breakdown(args.dataset, args.sizes, args.gpus)
        print(format_table(rows, title="Fig 3: runtime breakdown (seconds)"))
    else:
        rows = fig4_scaling(args.dataset, args.sizes, args.gpus)
        print(format_table(rows, title="Fig 4: FPS / VPS scaling"))
    return 0


def _cmd_analyze(args) -> int:
    from .bench import format_table, sec63_bottleneck
    from .perfmodel import CommComputeSplit, find_crossover

    rows = sec63_bottleneck(args.dataset, args.size)
    print(format_table(rows, title=f"§6.3 analysis, {args.size}^3 volume"))
    splits = [
        CommComputeSplit(r["n_gpus"], r["compute_s"], r["communication_s"])
        for r in rows
    ]
    cross = find_crossover(splits)
    if cross is None:
        print("compute-bound at every measured GPU count")
    else:
        print(f"communication overtakes computation at {cross} GPUs")
    return 0


def _cmd_rotate(args) -> int:
    from . import MapReduceVolumeRenderer, RenderConfig, default_tf
    from .pipeline import orbit_path
    from .volume.datasets import DATASET_FIELDS

    r = MapReduceVolumeRenderer(
        volume=None,
        volume_shape=(args.size,) * 3,
        field=DATASET_FIELDS[args.dataset],
        cluster=args.gpus,
        tf=default_tf(),
        render_config=RenderConfig(dt=1.0),
    )
    cams = orbit_path((args.size,) * 3, args.frames, width=args.image, height=args.image)
    results = r.render_sequence(cams, resident=not args.no_resident)
    times = [res.runtime for res in results]
    steady = times[1:] or times
    print(f"{args.dataset} {args.size}^3 on {args.gpus} simulated GPUs, "
          f"{args.frames}-frame orbit "
          f"({'resident' if not args.no_resident else 'streaming'} bricks):")
    print(f"  first frame : {times[0] * 1e3:8.1f} ms")
    print(f"  steady frame: {sum(steady) / len(steady) * 1e3:8.1f} ms "
          f"({len(steady) / sum(steady):.2f} FPS)")
    return 0


def _cmd_report(args) -> int:
    from .bench.results import ExperimentResults

    results = ExperimentResults(
        kernels=args.kernels,
        baseline=args.baseline,
        previous=args.previous,
        parallel=args.parallel,
        threshold=args.threshold,
    )
    print(results.render_report())
    if args.check and not results.check():
        print(
            f"FAIL: {len(results.regressions())} kernel(s) regressed "
            f"beyond {args.threshold:.0%}",
            file=sys.stderr,
        )
        return 1
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
        "sweep": _cmd_sweep,
        "analyze": _cmd_analyze,
        "rotate": _cmd_rotate,
        "report": _cmd_report,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
