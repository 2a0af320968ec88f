"""The dependency direction, checked end to end.

The analysis half (``repro.sim``, ``repro.baselines``,
``repro.perfmodel``, ``repro.bench``) may import the functional
renderer; the renderer may not import it.  A fresh interpreter renders
every golden scene through both executors, bitwise, and runs ``repro
render`` on both, then asserts that no analysis module was ever loaded.
Another fresh interpreter renders in-process and asserts that no
``repro.parallel`` module was loaded either.
"""

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

_CHILD = r"""
import sys
sys.path.insert(0, sys.argv[1])
out_dir = sys.argv[2]
import test_golden_images as g
from repro.cli import main
from repro.core import InProcessExecutor
from repro.parallel import SharedMemoryPoolExecutor

with SharedMemoryPoolExecutor(workers=2) as pool:
    for executor in (InProcessExecutor(), pool):
        for scene in sorted(g.SCENES):
            g.assert_matches_golden(scene, *g.render_scene(scene, executor))
for executor in ("inprocess", "pool"):
    argv = ["render", "--size", "16", "--gpus", "2", "--image", "32",
            "--executor", executor, "--out", f"{out_dir}/{executor}.ppm"]
    assert main(argv) == 0
analysis = ("repro.sim", "repro.baselines", "repro.perfmodel", "repro.bench")
loaded = sorted(
    m for m in sys.modules
    if any(m == a or m.startswith(a + ".") for a in analysis)
)
assert not loaded, loaded
print("ok")
"""


def test_functional_render_imports_no_analysis_module(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(TESTS), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "inprocess.ppm").read_bytes() == (tmp_path / "pool.ppm").read_bytes()


_SERIAL_CHILD = r"""
import sys
import repro.cli
print(len([m for m in sys.modules if m == "repro" or m.startswith("repro.")]))
assert repro.cli.main(["render", "--size", "16", "--gpus", "2", "--image", "16",
                       "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.startswith("repro.parallel")))
"""


def test_in_process_render_loads_no_pool_module(tmp_path):
    """``repro.parallel`` is imported by name: ``import repro.cli`` stays
    at 41 ``repro`` modules, and a fresh interpreter's in-process
    ``repro render`` loads no ``repro.parallel`` module."""
    proc = subprocess.run(
        [sys.executable, "-c", _SERIAL_CHILD, str(tmp_path / "serial.ppm")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert int(lines[0]) <= 41
    assert lines[-1] == "[]"
