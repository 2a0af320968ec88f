#!/usr/bin/env python
"""Sort-last (swap-compositing) rendering — the §6.1 alternative.

The paper chose direct-send (sort-first) compositing but argues the
library's modularity makes swap compositing a partitioner change:
"Every node would consume all generated ray fragments to create its
partial image.  The reduction phase would then be changed to perform
swap compositing."

This example renders the same frame three ways and verifies all agree:

1. single-pass reference renderer,
2. the direct-send MapReduce pipeline (sort-first),
3. sort-last: view-ordered slab assignment, local compositing per GPU,
   binary-swap merge of partial images,

then prices both distributed schemes on the simulated cluster.

Run:  python examples/sort_last_swap.py [output_dir]
"""

import sys
from pathlib import Path

from repro import (
    MapReduceVolumeRenderer,
    RenderConfig,
    fire_tf,
    make_dataset,
    orbit_camera,
    render_reference,
    write_ppm,
)
from repro.baselines import binary_swap_time
from repro.pipeline.swap import render_swap
from repro.render import max_abs_diff
from repro.sim import NetworkSpec
from repro.volume import BrickGrid


def main(out_dir: str = "quickstart_output") -> None:
    out = Path(out_dir)
    out.mkdir(exist_ok=True)

    volume = make_dataset("supernova", (32, 32, 32))
    camera = orbit_camera(volume.shape, azimuth_deg=55, elevation_deg=15,
                          width=192, height=192)
    tf = fire_tf()
    config = RenderConfig(dt=0.6, ert_alpha=1.0)
    grid = BrickGrid(volume.shape, 8, ghost=1)
    n_gpus = 4

    # 1. ground truth
    reference = render_reference(volume, camera, tf, config)

    # 2. sort-first: the paper's direct-send pipeline
    direct = MapReduceVolumeRenderer(
        volume=volume, cluster=n_gpus, tf=tf, render_config=config
    ).render(camera, grid=grid)

    # 3. sort-last: local composite + swap merge
    swap = render_swap(volume, camera, tf, n_gpus=n_gpus, config=config, grid=grid)

    print(f"direct-send vs reference: {max_abs_diff(direct.image, reference.image):.2e}")
    print(f"sort-last  vs reference: {max_abs_diff(swap.image, reference.image):.2e}")
    print(f"slab axis used for visibility ordering: {'xyz'[swap.axis]}")
    print(f"fragments per GPU (sort-last): {swap.fragments_per_gpu}")
    write_ppm(out / "supernova_sort_last.ppm", swap.image)

    # price the compositing schemes at figure scale
    net = NetworkSpec()
    for n in (4, 8, 16, 32):
        swap_cost = binary_swap_time(n, 512 * 512, net)
        print(f"binary swap @ {n:2d} participants: rounds={swap_cost.rounds} "
              f"comm={swap_cost.comm_seconds * 1e3:.1f}ms "
              f"composite={swap_cost.composite_seconds * 1e3:.1f}ms "
              f"total={swap_cost.total * 1e3:.1f}ms")
    print("compare against direct-send Partition+Sort+Reduce with "
          "`repro figure ablation_compositing`")


if __name__ == "__main__":
    main(*sys.argv[1:2])
