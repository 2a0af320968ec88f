"""Exact pins of the simulated paper figures.

The simulator is deterministic, so the figure tables, the simulated
frame outcomes and the ``repro rotate`` report are pinned value for
value in ``golden/paper_figures.json``.  A change to any of them is a
stated re-baseline, never silent drift.  The only way to rewrite the
file is::

    PYTHONPATH=src python tests/test_paper_figures.py --regen
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench import (
    ablation_compositing,
    ablation_partitioners,
    ablation_reduce_device,
    ablation_sort_device,
    exec_vs_sim_validation,
    fig3_breakdown,
    fig4_scaling,
    micro_transfer_costs,
    paraview_reference,
    sec63_bottleneck,
)
from repro.bench.experiments import ablation_combiner, ablation_future_work
from repro.cli import main as cli_main
from repro.pipeline import MapReduceVolumeRenderer, orbit_path
from repro.pipeline.workload import replay, simulate_sequence
from repro.render import RenderConfig, default_tf, orbit_camera
from repro.volume import make_dataset
from repro.volume.datasets import skull_field

GOLDEN = Path(__file__).with_name("golden") / "paper_figures.json"

FIGURES = {}


def figure(fn):
    FIGURES[fn.__name__] = fn
    return fn


def _plain(obj):
    """JSON-shaped copy of ``obj``: dataclasses and NumPy values become
    dicts, lists and Python scalars."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _field_renderer(size=128, n_gpus=4):
    return MapReduceVolumeRenderer(
        volume=None,
        volume_shape=(size,) * 3,
        field=skull_field,
        cluster=n_gpus,
        tf=default_tf(),
        render_config=RenderConfig(dt=1.0),
    )


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(argv) == 0
    return buf.getvalue()


@figure
def fig3_breakdown_small():
    return fig3_breakdown("skull", (64, 128), (1, 2, 4, 8))


@figure
def fig4_scaling_small():
    return fig4_scaling("skull", (64, 128), (1, 2, 4, 8))


@figure
def exec_vs_sim():
    return exec_vs_sim_validation()


# The §6.3, footnote-1 and §3 tables and the six ablations, at the
# paper-scale defaults the figure experiments run with.
for _fn in (
    sec63_bottleneck,
    paraview_reference,
    micro_transfer_costs,
    ablation_partitioners,
    ablation_compositing,
    ablation_sort_device,
    ablation_reduce_device,
    ablation_future_work,
    ablation_combiner,
):
    figure(_fn)


@figure
def sequence_resident():
    r = _field_renderer()
    cams = orbit_path((128,) * 3, 3, width=256, height=256)
    return simulate_sequence(r, cams, resident=True)


@figure
def sequence_streaming():
    r = _field_renderer()
    cams = orbit_path((128,) * 3, 3, width=256, height=256)
    return simulate_sequence(r, cams, resident=False)


@figure
def rotation_frame_runtimes():
    r = _field_renderer()
    cams = orbit_path(r.volume_shape, 4, width=256, height=256)
    return [o.total_runtime for o in simulate_sequence(r, cams, resident=False)]


@figure
def replayed_frame():
    vol = make_dataset("supernova", (24, 24, 24))
    cam = orbit_camera(vol.shape, azimuth_deg=40, elevation_deg=25, width=48, height=48)
    r = MapReduceVolumeRenderer(
        volume=vol, cluster=2, tf=default_tf(),
        render_config=RenderConfig(dt=0.8, ert_alpha=1.0),
    )
    return replay(r, r.render(cam))


@figure
def rotate_cli_resident():
    return _stdout(["rotate", "--size", "128", "--gpus", "4", "--frames", "4",
                    "--image", "256"])


@figure
def rotate_cli_streaming():
    return _stdout(["rotate", "--size", "64", "--gpus", "2", "--frames", "3",
                    "--image", "128", "--no-resident"])


def compute(name):
    return json.loads(json.dumps(_plain(FIGURES[name]())))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_figure(golden):
    assert sorted(golden) == sorted(FIGURES)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_paper_figure_matches_golden(name, golden):
    assert compute(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    table = {name: compute(name) for name in sorted(FIGURES)}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} figures to {GOLDEN}")
