"""Census of the render path's settable values.

A knob survives only with a caller outside the tests, or a test that
shows what breaks without it.  :data:`KNOBS` names that reason for
every :class:`~repro.render.RenderConfig` field, and
:data:`RENDER_FLAGS` is the whole ``repro render`` option set; both
must equal what the code declares, so a new knob has to state its
reason here and a deleted one cannot linger in the list.  Environment
overrides are not a second way to set a knob: no module under
``src/repro`` names a ``REPRO_*`` variable.
"""

import dataclasses
import math
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
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

#: The ``repro render`` options.
RENDER_FLAGS = [
    "--dataset", "--size", "--gpus", "--image", "--azimuth", "--elevation",
    "--dt", "--shading", "--auto-tf", "--accel",
    "--executor", "--workers", "--reduce-mode", "--no-supervise",
    "--max-frame-retries", "--fault-plan",
    "--trace-out", "--stats-json", "--out",
]


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
    assert len(RENDER_FLAGS) == 19
    assert flags == set(RENDER_FLAGS)
    env_names = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted(SRC.rglob("*"))
        if path.suffix in (".py", ".c")
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "REPRO_" in line
    ]
    assert env_names == []


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_non_finite_step_is_refused(dt, tmp_path):
    """A NaN or infinite step takes no sample and would render a blank
    image; the config refuses it, and so does ``repro render``."""
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        RenderConfig(dt=dt)
    out = tmp_path / "r.ppm"
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        main(["render", "--size", "16", "--gpus", "2", "--image", "16",
              "--dt", str(dt), "--out", str(out)])
    assert not out.exists()
