"""Tests for orbit paths, auto transfer functions, and the CLI."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.pipeline import MapReduceVolumeRenderer, orbit_path
from repro.pipeline.workload import simulate_sequence
from repro.render import RenderConfig, default_tf
from repro.volume import auto_transfer_function, make_dataset, value_histogram
from repro.volume.datasets import skull_field


# -- orbit path / rotation -------------------------------------------------
def test_orbit_path_shapes_and_validation():
    cams = orbit_path((32, 32, 32), 6, width=64, height=64)
    assert len(cams) == 6
    assert all(c.width == 64 for c in cams)
    # Azimuths spread over the circle: first and fourth oppose.
    e0 = np.asarray(cams[0].eye)
    e3 = np.asarray(cams[3].eye)
    center = np.array([16.0, 16.0, 16.0])
    assert np.dot(e0[:2] - center[:2], e3[:2] - center[:2]) < 0
    with pytest.raises(ValueError):
        orbit_path((32, 32, 32), 0)


def test_simulated_orbit_frame_times():
    r = MapReduceVolumeRenderer(
        volume=None,
        volume_shape=(128, 128, 128),
        field=skull_field,
        cluster=4,
        tf=default_tf(),
        render_config=RenderConfig(dt=1.0),
    )
    cams = orbit_path(r.volume_shape, 4, width=256, height=256)
    outcomes = simulate_sequence(r, cams, resident=False)
    times = [o.total_runtime for o in outcomes]
    assert len(times) == 4 and all(t > 0 for t in times)
    # The view changes each frame's work: the orbit is not flat.
    assert max(times) > min(times)


# -- histogram / auto transfer function ------------------------------------
def test_value_histogram_basic():
    vol = make_dataset("skull", (24, 24, 24))
    counts, edges = value_histogram(vol, bins=64)
    assert counts.sum() == vol.data.size
    assert len(edges) == 65
    with pytest.raises(ValueError):
        value_histogram(vol, bins=1)
    with pytest.raises(ValueError):
        value_histogram(vol, sample_stride=0)


def test_auto_transfer_function_properties():
    vol = make_dataset("supernova", (24, 24, 24))
    tf = auto_transfer_function(vol, max_alpha=0.6)
    # Valid table, background transparent, opacity reaches meaningful levels.
    assert tf.table.shape[1] == 4
    alpha0 = tf.lookup_from_u(tf.table_coord(np.array([0.0])))[0, 3]
    assert alpha0 == pytest.approx(0.0, abs=1e-5)
    assert tf.table[:, 3].max() <= 0.6 + 1e-6
    assert tf.table[:, 3].max() > 0.2
    with pytest.raises(ValueError):
        auto_transfer_function(vol, max_alpha=0.0)
    with pytest.raises(ValueError):
        auto_transfer_function(vol, colormap="rainbow")


def test_auto_transfer_function_renders():
    """An auto TF must produce a non-empty image through the pipeline."""
    vol = make_dataset("skull", (24, 24, 24))
    tf = auto_transfer_function(vol)
    from repro.render import orbit_camera, render_reference

    cam = orbit_camera(vol.shape, width=48, height=48)
    ref = render_reference(vol, cam, tf, RenderConfig(dt=1.0))
    assert ref.image[..., 3].max() > 0.05


# -- CLI ------------------------------------------------------------------------
def test_cli_parser_subcommands():
    p = build_parser()
    args = p.parse_args(["render", "--dataset", "supernova", "--size", "16"])
    assert args.command == "render" and args.size == 16
    args = p.parse_args(["figure", "sec63_bottleneck"])
    assert args.command == "figure" and args.name == "sec63_bottleneck"
    assert p.parse_args(["figure"]).name is None
    with pytest.raises(SystemExit):
        p.parse_args(["sweep"])


def test_cli_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out and "GPU model" in out


def test_cli_render_writes_ppm(tmp_path, capsys):
    out = tmp_path / "cli.ppm"
    rc = main(
        [
            "render",
            "--dataset",
            "supernova",
            "--size",
            "16",
            "--gpus",
            "2",
            "--image",
            "32",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert out.exists() and out.read_bytes().startswith(b"P6")
    out = capsys.readouterr().out
    assert "frame wall-clock:" in out and "(measured)" in out
    assert "simulated stages" not in out


def test_cli_render_with_shading_and_auto_tf(tmp_path):
    out = tmp_path / "shaded.ppm"
    rc = main(
        [
            "render", "--size", "16", "--gpus", "1", "--image", "32",
            "--shading", "--auto-tf", "--out", str(out),
        ]
    )
    assert rc == 0 and out.exists()


def test_cli_figure_lists_the_registry(capsys):
    from repro.sim.figures import FIGURES

    assert main(["figure"]) == 0
    listed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == list(FIGURES)


def test_cli_figure_unknown_name_exits_nonzero(capsys):
    assert main(["figure", "no-such-name"]) != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no-such-name" in captured.err and "fig3_breakdown_small" in captured.err
