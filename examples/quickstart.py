#!/usr/bin/env python
"""Quickstart: render a volume with the MapReduce pipeline.

Renders the procedural Skull dataset bricked for 4 GPUs, verifies the
distributed image against the single-pass reference renderer, prices
the frame's measured work on the simulated 4-GPU cluster, and writes
both images to PPM files.

Run:  python examples/quickstart.py [output_dir]
"""

import sys
import time
from pathlib import Path

from repro import (
    MapReduceVolumeRenderer,
    RenderConfig,
    bone_tf,
    make_dataset,
    orbit_camera,
    render_reference,
    write_ppm,
)
from repro.pipeline.workload import replay
from repro.render import image_stats, psnr


def main(out_dir: str = "quickstart_output") -> None:
    out = Path(out_dir)
    out.mkdir(exist_ok=True)

    # 1. A volume and a view.  The same procedural field scales to 1024^3;
    #    48^3 keeps this demo instant.
    volume = make_dataset("skull", (48, 48, 48))
    camera = orbit_camera(
        volume.shape, azimuth_deg=30, elevation_deg=20, width=256, height=256
    )
    tf = bone_tf()
    config = RenderConfig(dt=0.5)

    # 2. The full MapReduce pipeline: bricks -> ray-cast mappers ->
    #    pixel-keyed fragments -> round-robin partition -> counting sort
    #    -> depth compositing reducers -> stitched image.
    renderer = MapReduceVolumeRenderer(
        volume=volume, cluster=4, tf=tf, render_config=config
    )
    t0 = time.time()
    result = renderer.render(camera, bricks_per_gpu=2)
    wall = time.time() - t0
    # The frame's measured per-chunk work, replayed on the simulated
    # 2010 cluster for the paper's stage timings.
    sb = replay(renderer, result).breakdown

    # 3. Ground truth from the single-pass reference renderer.
    reference = render_reference(volume, camera, tf, config)

    print(f"rendered {volume.resolution_label()} skull on {result.n_gpus} GPUs "
          f"({result.n_bricks} bricks) in {wall:.2f}s wall")
    print(f"image stats: {image_stats(result.image)}")
    print(f"PSNR vs reference: {psnr(result.image, reference.image):.1f} dB")
    print(
        "simulated cluster stages: "
        f"map={sb.map * 1e3:.1f}ms partition+io={sb.partition_io * 1e3:.1f}ms "
        f"sort={sb.sort * 1e3:.1f}ms reduce={sb.reduce * 1e3:.1f}ms "
        f"(total {sb.total * 1e3:.1f}ms)"
    )

    write_ppm(out / "skull_mapreduce.ppm", result.image, background=(0, 0, 0))
    write_ppm(out / "skull_reference.ppm", reference.image, background=(0, 0, 0))
    print(f"wrote {out / 'skull_mapreduce.ppm'} and {out / 'skull_reference.ppm'}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
