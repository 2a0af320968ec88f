"""The golden images do not depend on NumPy's SIMD dispatch.

NumPy picks SIMD kernels at run time; ``NPY_DISABLE_CPU_FEATURES`` is
its own switch to turn the AVX2/FMA (``X86_V3``) and AVX-512 targets
off, leaving the portable baseline.  A fresh interpreter with all of
them off runs ``tests/test_golden_images.py`` and must reproduce every
fixture bitwise.  The portable half of the pinned numbers is the
images; the simulated figures are not portable yet (ROADMAP item 15).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
DISABLED = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

# The child first checks that the switch took: no AVX2-or-wider target
# is left enabled.
CHILD = r"""
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
enabled = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
assert not enabled, f"still dispatched: {enabled}"
sys.exit(pytest.main([sys.argv[1], "-q", "-p", "no:cacheprovider"]))
"""


def test_golden_images_are_bitwise_under_numpy_baseline_dispatch():
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
        [sys.executable, "-c", CHILD, str(TESTS / "test_golden_images.py")],
        capture_output=True, text=True, timeout=600, env=env, cwd=TESTS.parent,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
