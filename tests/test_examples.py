"""Every ``examples/*.py`` runs to completion at its quick size.

Each example's ``main()`` runs once per session, in-process and writing
into a temporary directory (the ``example_runs`` fixture of
``conftest.py``); the check is the line of its own output that says
whether the result is right.
"""

import re

import pytest

from conftest import EXAMPLE_ARGS, EXAMPLES

# example -> a line its output must match
EXPECT = {
    "bottleneck_analysis": r"communication overtakes computation at \d+ GPUs",
    "out_of_core": r"image diff: 0\.00e\+00",
    "pluggable_pipeline": r"single-brick diff: 0\.00e\+00",
    "quickstart": r"simulated cluster stages: map=",
    "scaling_study": r"best configuration = \d+ GPUs",
}


def test_every_example_is_run():
    assert sorted(p.stem for p in EXAMPLES.glob("*.py")) == sorted(EXPECT)
    assert sorted(EXAMPLE_ARGS) == sorted(EXPECT)


@pytest.mark.parametrize("name", sorted(EXPECT))
def test_example_runs(name, example_runs):
    outputs, _ = example_runs
    out = outputs[name]
    assert re.search(EXPECT[name], out), out
    if name == "quickstart":
        psnr = float(re.search(r"PSNR vs reference: ([\d.]+) dB", out).group(1))
        assert psnr > 40.0
