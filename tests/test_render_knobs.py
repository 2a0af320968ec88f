"""Census of the render path's settable values.

A knob survives only with a caller outside the tests, or a test that
shows what breaks without it.  :data:`KNOBS` names that reason for
every :class:`~repro.render.RenderConfig` field, :data:`POOL_PARAMS`
and :data:`RENDERER_PARAMS` for every keyword of the pool executor and
the renderer, and :data:`RENDER_FLAGS` is the whole ``repro render``
option set; each must equal what the code declares, so a new knob has
to state its reason here and a deleted one cannot linger in the list.
Environment overrides are not a second way to set a knob: no module
under ``src/repro`` names a ``REPRO_*`` variable.  The pool's timeouts,
retry budget, backoff and edge size are constants of
:mod:`repro.parallel.shuffle`, not settings.
"""

import dataclasses
import inspect
import math
from pathlib import Path

import pytest

import repro
import repro.parallel
from repro import MapReduceVolumeRenderer
from repro.cli import build_parser, main
from repro.parallel import SharedMemoryPoolExecutor
from repro.render import RenderConfig

SRC = Path(repro.__file__).parent

#: Every RenderConfig field, with the caller or pinning test that keeps it.
KNOBS = {
    "dt": "repro render --dt; benchmarks/e2e's scenes set it",
    "ert_alpha": "benchmarks/e2e's dense scene sets it to 1.0 (no termination)",
    "shading": "repro render --shading",
    "accel": "repro render --accel; 'off' is the oracle the accel suites compare against",
    "emit_placeholders": "golden skull_noert_placeholders pins n_pairs_emitted = 5120, "
                         "one pair per ray (the paper's fixed-output kernel)",
}

#: Every SharedMemoryPoolExecutor keyword, with its caller or pinning test.
POOL_PARAMS = {
    "workers": "the renderer passes one per simulated GPU; repro render --workers",
    "pipeline_depth": "benchmarks/e2e's pool workloads run depth 2 (child.py's stream_frames)",
    "reduce_mode": "benchmarks/e2e/harness.py passes it (ROADMAP item 1(d))",
    "shuffle_mode": "benchmarks/e2e/harness.py passes it (ROADMAP item 1(d))",
    "fault_plan": "repro render --fault-plan; CI's fault-injection job",
}

#: Every MapReduceVolumeRenderer keyword, with its caller or pinning test.
RENDERER_PARAMS = {
    "volume": "repro render; benchmarks/e2e's scenes",
    "cluster": "repro render --gpus; a ClusterSpec's VRAM check is pinned in test_pipeline",
    "tf": "repro render --auto-tf; benchmarks/e2e's scenes",
    "render_config": "repro render --dt/--shading/--accel; benchmarks/e2e",
    "field": "the simulated figures (sim/figures.py); examples/out_of_core.py",
    "volume_shape": "the simulated figures render without an in-core volume",
    "partitioner_factory": "sim/figures.py's partitioner ablation; examples/pluggable_pipeline.py",
    "executor": "repro render --executor; benchmarks/e2e runs both",
    "workers": "repro render --workers; benchmarks/e2e's pool runs 2",
    "reduce_mode": "benchmarks/e2e/harness.py passes it (ROADMAP item 1(d))",
    "pipeline_depth": "benchmarks/e2e's pool workloads run depth 2",
    "shuffle_mode": "benchmarks/e2e/harness.py passes it (ROADMAP item 1(d))",
    "fault_plan": "repro render --fault-plan",
}

#: The ``repro render`` options.
RENDER_FLAGS = [
    "--dataset", "--size", "--gpus", "--image", "--azimuth", "--elevation",
    "--dt", "--shading", "--auto-tf", "--accel",
    "--executor", "--workers", "--reduce-mode", "--fault-plan",
    "--trace-out", "--stats-json", "--out",
]


def _keywords(fn) -> list:
    return [p for p in inspect.signature(fn).parameters if p != "self"]


def _render_parser():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    return sub.choices["render"]


def test_every_render_knob_has_a_caller():
    assert {f.name for f in dataclasses.fields(RenderConfig)} == set(KNOBS)
    flags = {
        opt
        for action in _render_parser()._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    assert len(RENDER_FLAGS) == 17
    assert flags == set(RENDER_FLAGS)
    assert _keywords(SharedMemoryPoolExecutor.__init__) == list(POOL_PARAMS)
    assert _keywords(MapReduceVolumeRenderer.__init__) == list(RENDERER_PARAMS)
    assert not hasattr(repro.parallel, "PoolConfig")
    assert "PoolConfig" not in repro.parallel.__all__
    env_names = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted(SRC.rglob("*"))
        if path.suffix in (".py", ".c")
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "REPRO_" in line
    ]
    assert env_names == []


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_non_finite_step_is_refused(dt, tmp_path, capsys):
    """A NaN or infinite step takes no sample and would render a blank
    image; the config refuses it, and ``repro render`` reports it as a
    usage error."""
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        RenderConfig(dt=dt)
    out = tmp_path / "r.ppm"
    with pytest.raises(SystemExit) as exit_info:
        main(["render", "--size", "16", "--gpus", "2", "--image", "16",
              "--dt", str(dt), "--out", str(out)])
    assert exit_info.value.code == 2
    assert "dt must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--gpus", "0"], "need at least one GPU"),
    (["--dt", "nan"], "dt must be finite and positive"),
    (["--workers", "0", "--executor", "pool"], "need at least one worker"),
    (["--fault-plan", "bogus", "--executor", "pool"], "fault rule 'bogus'"),
    (["--size", "0"], "shape must be three positive ints"),
    (["--image", "0"], "image must be at least 1x1"),
    (["--fault-plan", "crash@map:worker=0,frame=1"], "a fault plan needs the pool executor"),
    (["--azimuth", "nan"], "azimuth must be finite, got nan"),
    (["--elevation", "inf"], "elevation must be finite, got inf"),
    (["--workers", "3"], "a worker count needs the pool executor"),
    (["--reduce-mode", "worker"], "a reduce mode needs the pool executor"),
])
def test_invalid_render_value_is_a_usage_error(argv, message, tmp_path, capsys):
    """A value the parser accepts but the dataset, camera, config,
    renderer or pool refuses ends ``repro render`` as argparse's usage error (status 2,
    one ``error:`` line naming the problem), not as a traceback."""
    out = tmp_path / "r.ppm"
    with pytest.raises(SystemExit) as exit_info:
        main(["render", "--size", "8", "--image", "8", *argv,
              "--out", str(out)])
    assert exit_info.value.code == 2
    (line,) = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert line.startswith("repro render: error: ") and message in line
    assert not out.exists()
