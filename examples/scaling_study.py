#!/usr/bin/env python
"""Scaling study: regenerate the paper's evaluation at your terminal.

Sweeps volume size × GPU count on the simulated Accelerator Cluster and
prints the paper's three figures of merit (runtime breakdown, FPS, VPS),
the per-size sweet spots, and the §6.3 compute-vs-communication split.

Run:  python examples/scaling_study.py [--quick]
"""

import sys

from repro.perfmodel import find_sweet_spot
from repro.sim.figures import fig3_breakdown, fig4_scaling, sec63_bottleneck


def show(title, rows, columns=None):
    print(title)
    for row in rows:
        print("  ".join(f"{c}={row[c]}" for c in columns or row))


def main(quick: bool = False) -> None:
    sizes = (128, 256) if quick else (128, 256, 512, 1024)
    gpus = (1, 2, 8, 32) if quick else (1, 2, 4, 8, 16, 32)

    rows = fig3_breakdown(sizes=sizes, gpu_counts=gpus)
    show("Runtime breakdown by stage (Fig. 3)", rows)
    print()

    # Sweet spot per volume (the paper's 'best configuration' discussion).
    for size in sizes:
        totals = {
            r["n_gpus"]: r["total_s"] for r in rows if r["volume"] == f"{size}^3"
        }
        best = find_sweet_spot(totals)
        print(f"{size}^3: best configuration = {best} GPUs "
              f"({totals[best]:.3f}s per frame)")
    print()

    scaling = fig4_scaling(sizes=sizes, gpu_counts=gpus)
    show("Framerate and voxel throughput (Fig. 4)", scaling,
         ["volume", "n_gpus", "fps", "mvps", "speedup", "efficiency"])
    print()

    if not quick:
        show("Compute vs communication for 1024^3 (§6.3)", sec63_bottleneck())
        print()
        print("Note: computation stops being the bottleneck once "
              "communication crosses it — the paper's central claim.")


if __name__ == "__main__":
    main(quick="--quick" in sys.argv)
