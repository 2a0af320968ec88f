#!/usr/bin/env python
"""Out-of-core rendering: volumes bigger than any single GPU.

The paper's key capability over Mars-style GPU MapReduce: streaming
bricks through the GPUs instead of requiring the dataset in core.  This
example

1. writes a volume to the bricked ``.bvol`` container,
2. streams the bricks from disk through the MapReduce pipeline (the
   image is identical to the in-core render),
3. prices the same out-of-core frame on the simulated cluster, with and
   without the disk in the stream.

Run:  python examples/out_of_core.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro import (
    BvolReader,
    MapReduceVolumeRenderer,
    RenderConfig,
    fire_tf,
    make_dataset,
    orbit_camera,
    write_bvol,
    write_ppm,
)
from repro.core import Chunk, JobConfig
from repro.pipeline.workload import simulate_frame
from repro.render import max_abs_diff
from repro.volume.datasets import supernova_field


def main(out_dir: str = "quickstart_output") -> None:
    out = Path(out_dir)
    out.mkdir(exist_ok=True)
    tf = fire_tf()
    config = RenderConfig(dt=0.6, ert_alpha=1.0)

    # --- 1. brick a volume onto disk ------------------------------------
    volume = make_dataset("supernova", (40, 40, 40))
    camera = orbit_camera(volume.shape, width=192, height=192)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "supernova.bvol"
        grid = write_bvol(path, volume, brick_size=20)
        reader = BvolReader(path)
        print(f"wrote {path.name}: {len(grid)} bricks, "
              f"{reader.file_size() / 1e6:.1f} MB on disk")

        # --- 2. stream bricks from disk through the pipeline --------------
        renderer = MapReduceVolumeRenderer(
            volume=None,
            volume_shape=reader.shape,
            cluster=4,
            tf=tf,
            render_config=config,
        )
        spec = renderer._spec(camera)
        chunks = [
            Chunk(
                id=b.id,
                nbytes=b.nbytes,
                loader=lambda i=b.id: reader.read_brick(i),
                on_disk=True,
                meta=b,
            )
            for b in reader.grid
        ]
        from repro.core import InProcessExecutor
        from repro.render import stitch_pixels

        result = InProcessExecutor().execute(
            spec, chunks, [c.id % 4 for c in chunks]
        )
        parts = [(k, v) for k, v in result.outputs if len(k)]
        streamed = stitch_pixels(parts, camera.width, camera.height)
        print(f"streamed {reader.bytes_read / 1e6:.1f} MB of bricks from disk")

        # Identical to the in-core render.
        in_core = MapReduceVolumeRenderer(
            volume=volume, cluster=4, tf=tf, render_config=config
        ).render(camera, grid=reader.grid)
        print(f"out-of-core vs in-core image diff: "
              f"{max_abs_diff(streamed, in_core.image):.2e} (expect 0)")
        write_ppm(out / "supernova_out_of_core.ppm", streamed)

    # --- 3. what does out-of-core cost at figure scale? -------------------
    for include_disk, label in [(False, "bricks in host RAM"), (True, "bricks on disk")]:
        sim = simulate_frame(
            MapReduceVolumeRenderer(
                volume=None,
                volume_shape=(512, 512, 512),
                field=supernova_field,
                cluster=8,
                tf=tf,
                render_config=RenderConfig(dt=1.0),
            ),
            orbit_camera((512,) * 3, width=512, height=512, distance_factor=2.2),
            job_config=JobConfig(include_disk=include_disk),
            out_of_core=True,
        )
        print(f"simulated 512^3 frame on 8 GPUs, {label}: {sim.total_runtime:.3f}s")


if __name__ == "__main__":
    main(*sys.argv[1:2])
