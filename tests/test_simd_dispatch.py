"""The pinned numbers do not depend on NumPy's SIMD dispatch.

NumPy picks SIMD kernels at run time; ``NPY_DISABLE_CPU_FEATURES`` is
its own switch to turn the AVX2/FMA (``X86_V3``) and AVX-512 targets
off, leaving the portable baseline.  A fresh interpreter with all of
them off runs ``tests/test_golden_images.py`` and must reproduce every
fixture bitwise; another computes every paper figure with
``repro figure NAME``.  The images are portable.  Of the simulated
figures, those in :data:`NOT_PORTABLE` differ from their pins under the
baseline dispatch today (ROADMAP item 15); each is a strict xfail, so a
fix shows as an unexpected pass and the set must shrink.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.figures import FIGURES

TESTS = Path(__file__).resolve().parent
GOLDEN_FIGURES = TESTS / "golden" / "paper_figures.json"
DISABLED = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

#: The figures whose values change under the baseline dispatch.
NOT_PORTABLE = {
    "ablation_compositing", "ablation_future_work", "ablation_partitioners",
    "ablation_reduce_device", "ablation_sort_device", "fig3_breakdown_small",
    "fig4_scaling_small", "rotation_frame_runtimes", "sec63_bottleneck",
    "sequence_resident", "sequence_streaming",
}

# The child first checks that the switch took: no AVX2-or-wider target
# is left enabled.
CHECK = r"""
import sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
enabled = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
assert not enabled, f"still dispatched: {enabled}"
"""
CHILD = CHECK + r"""
import pytest
sys.exit(pytest.main([sys.argv[1], "-q", "-p", "no:cacheprovider"]))
"""
FIGURE_CHILD = CHECK + r"""
import json
sys.path.insert(0, sys.argv[1])
from entry_points import figure_value
from repro.sim.figures import FIGURES
values = {name: figure_value(name) for name in sorted(FIGURES)}
with open(sys.argv[2], "w") as fh:
    json.dump(values, fh)
"""


def _baseline_run(*argv):
    """Run ``argv`` in a fresh interpreter with only NumPy's baseline
    dispatch left (skipped on a host with none to disable)."""
    features = pytest.importorskip("numpy._core._multiarray_umath").__cpu_features__
    if not features.get("AVX2"):
        pytest.skip("this host has no AVX2 dispatch to disable")
    src = str(TESTS.parent / "src")
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=DISABLED,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    done = subprocess.run(
        [sys.executable, "-c", *argv],
        capture_output=True, text=True, timeout=600, env=env, cwd=TESTS.parent,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


def test_golden_images_are_bitwise_under_numpy_baseline_dispatch():
    _baseline_run(CHILD, str(TESTS / "test_golden_images.py"))


@pytest.fixture(scope="module")
def baseline_figures(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures") / "values.json"
    _baseline_run(FIGURE_CHILD, str(TESTS), str(out))
    return json.loads(out.read_text())


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="differs under the baseline dispatch (ROADMAP item 15)"
    )) if name in NOT_PORTABLE else name
    for name in sorted(FIGURES)
])
def test_paper_figures_are_pinned_under_numpy_baseline_dispatch(name, baseline_figures):
    assert baseline_figures[name] == json.loads(GOLDEN_FIGURES.read_text())[name]


def test_not_portable_names_figures():
    assert NOT_PORTABLE < set(FIGURES)
