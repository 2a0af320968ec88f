"""The benchmark's only door into the program under test.

Every ``import repro…`` of ``benchmarks/e2e`` lives here, so when a
later PR shrinks or renames the public API (ROADMAP items 3 and 5) the
benchmark follow-up is this one file.  ``__all__`` is the list of names
the benchmark depends on.

The package is taken from ``<checkout>/src`` and nowhere else: the
benchmark measures the tree it sits in, never an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"no program to measure: {SRC / 'repro'} is missing")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro  # noqa: E402
from repro import (  # noqa: E402
    MapReduceVolumeRenderer,
    RenderConfig,
    default_tf,
    grayscale_tf,
    make_dataset,
    orbit_camera,
    render_reference,
)
from repro.core.executors import (  # noqa: E402
    InProcessResult,
    make_map_work,
    map_chunk_to_runs,
    merge_partition_runs,
)
from repro.core.sort import counting_sort_pairs  # noqa: E402
from repro.core.stats import JobStats  # noqa: E402
from repro.observability import disable_tracing, enable_tracing  # noqa: E402
from repro.parallel import usable_cores  # noqa: E402
from repro.render import psnr, stitch_pixels  # noqa: E402
from repro.render.fragments import FRAGMENT_DTYPE  # noqa: E402
from repro.volume import bricks_for_gpu_count  # noqa: E402

if Path(repro.__file__).resolve().parent != SRC / "repro":
    raise ImportError(f"repro came from {repro.__file__}, not from {SRC}")

__all__ = [
    "FRAGMENT_DTYPE",
    "InProcessResult",
    "JobStats",  # .ring is read for the pool counters
    "MapReduceVolumeRenderer",
    "RenderConfig",
    "bricks_for_gpu_count",  # -> BrickGrid, whose .extract is timed
    "cli_main",
    "collect_environment",
    "counting_sort_pairs",
    "default_tf",
    "disable_tracing",
    "enable_tracing",  # -> Tracer, whose .all_events is read
    "grayscale_tf",
    "make_dataset",
    "make_map_work",
    "map_chunk_to_runs",
    "merge_partition_runs",
    "orbit_camera",
    "psnr",
    "render_reference",
    "stitch_pixels",
    "usable_cores",
]


def collect_environment() -> dict:
    """Provenance block of the program's own bench package.  Imported on
    demand: ``repro.bench`` is not on the render path, and a measuring
    child must not pay for it."""
    from repro.bench.results import collect_environment as collect

    return collect()


def cli_main(argv) -> int:
    """``python -m repro …`` without the new process."""
    from repro.cli import main

    return main(argv)
