"""Every ``examples/*.py`` runs to completion at its quick size.

Each example's ``main()`` is called in-process, writing into
``tmp_path``; the check is the line of its own output that says whether
the result is right.
"""

import importlib.util
import re
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

# example -> (main's arguments given tmp_path, a line its output must match)
RUNS = {
    "bottleneck_analysis": (lambda tmp: (), r"communication overtakes computation at \d+ GPUs"),
    "out_of_core": (lambda tmp: (str(tmp),), r"image diff: 0\.00e\+00"),
    "pluggable_pipeline": (lambda tmp: (str(tmp),), r"single-brick diff: 0\.00e\+00"),
    "quickstart": (lambda tmp: (str(tmp),), r"simulated cluster stages: map="),
    "scaling_study": (lambda tmp: (True,), r"best configuration = \d+ GPUs"),
}


def test_every_example_is_run():
    assert sorted(p.stem for p in EXAMPLES.glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_example_runs(name, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    args, expect = RUNS[name]
    module.main(*args(tmp_path))
    out = capsys.readouterr().out
    assert re.search(expect, out), out
    if name == "quickstart":
        psnr = float(re.search(r"PSNR vs reference: ([\d.]+) dB", out).group(1))
        assert psnr > 40.0
