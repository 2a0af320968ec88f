#!/usr/bin/env python
"""Bottleneck analysis (§6.3).

Prints the simulator's achieved stage times for a 1024³ render and its
compute-vs-communication split per GPU count — the paper's argument
that "the computation from ray casting is no longer a limiting factor
in rendering".

Run:  python examples/bottleneck_analysis.py
"""

from repro.core import JobConfig, RoundRobinPartitioner
from repro.perfmodel import compute_vs_communication, find_crossover
from repro.pipeline.workload import build_workload
from repro.render import default_tf
from repro.render.fragments import FRAGMENT_NBYTES
from repro.sim import SimClusterExecutor, accelerator_cluster
from repro.sim.figures import figure_camera
from repro.volume import bricks_for_gpu_count, grid_occupancy
from repro.volume.datasets import skull_field

SIZE = 1024
DT = 1.0


def workload_for(n_gpus: int):
    shape = (SIZE,) * 3
    cam = figure_camera(shape)
    grid = bricks_for_gpu_count(shape, n_gpus, 2)
    tf = default_tf()
    occ = grid_occupancy(grid, tf.opacity_threshold_value(), field=skull_field)
    return build_workload(grid, cam, DT, occ, RoundRobinPartitioner(n_gpus), n_gpus)


def main() -> None:
    print(f"=== {SIZE}^3 skull, 512^2 image, bricks = 2 x GPUs ===\n")

    splits = []
    for n in (2, 4, 8, 16, 32):
        spec = accelerator_cluster(n)
        works = workload_for(n)
        outcome, _ = SimClusterExecutor(spec, JobConfig()).execute(
            works, pair_nbytes=FRAGMENT_NBYTES
        )
        split = compute_vs_communication(spec, works, FRAGMENT_NBYTES)
        splits.append(split)
        achieved = outcome.breakdown
        print(f"{n:3d} GPUs:")
        print(f"    achieved:       map={achieved.map:.3f}s "
              f"partition+io={achieved.partition_io:.3f}s "
              f"sort={achieved.sort:.4f}s reduce={achieved.reduce:.4f}s "
              f"total={achieved.total:.3f}s")
        print(f"    compute {split.compute_seconds:.3f}s vs "
              f"communication {split.communication_seconds:.3f}s -> "
              f"{'compute' if split.compute_bound else 'COMMUNICATION'}-bound")
        print()

    cross = find_crossover(splits)
    print(f"communication overtakes computation at {cross} GPUs "
          "(paper: between 8 and 16)")
    print("=> computation is no longer the bottleneck — the paper's §6.3 claim")


if __name__ == "__main__":
    main()
