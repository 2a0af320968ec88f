"""Exact pins of the simulated paper figures, read through the CLI.

The simulator is deterministic, so every entry of
:data:`repro.sim.figures.FIGURES` — the figure tables, the simulated
frame outcomes and the orbit reports — is pinned value for value in
``golden/paper_figures.json``.  Each value is computed by running
``repro figure NAME`` and reading its stdout back, so one test proves
that the CLI prints what is pinned and that the registry matches the
golden file.  A change to any of them is a stated re-baseline, never
silent drift.  The only way to rewrite the file is::

    PYTHONPATH=src python tests/test_paper_figures.py --regen

The figures run once per session (the ``figure_runs`` fixture of
``conftest.py``), under a profiler that records every
Python function they call.  The census test uses that record: each
function of the paper model (``repro.sim``, ``repro.perfmodel``,
``repro.baselines``) either runs for some pinned figure or is named in
:data:`ALLOWED` with the reason it stays.
"""

import json
import sys
from pathlib import Path

import pytest

from entry_points import SRC, figure_value, functions_under
from repro.sim.figures import FIGURES

GOLDEN = Path(__file__).with_name("golden") / "paper_figures.json"
MODEL_PACKAGES = ("sim", "perfmodel", "baselines")

#: The paper-model functions no pinned figure calls, each with the
#: reason it stays.  Keyed ``"<path under repro/>::<qualified name>"``.
ALLOWED = {
    "perfmodel/bottleneck.py::find_crossover":
        "test_paper_claims.py finds §6.3's crossover between 8 and 16 GPUs",
    "perfmodel/bottleneck.py::find_sweet_spot":
        "test_paper_claims.py finds Fig. 4's best GPU count per volume",
    "sim/node.py::NodeRuntime.read_disk":
        "test_paper_claims.py::test_in_core_vs_out_of_core charges disk reads",
    "sim/engine.py::Event.fail":
        "the engine's error path; test_sim_engine.py drives it",
    "sim/node.py::ClusterSpec.with_gpu":
        "five test modules build their cluster fixtures with it",
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _model_functions():
    return functions_under(
        path for package in MODEL_PACKAGES for path in (SRC / package).glob("*.py")
    )


def test_golden_covers_every_figure(golden):
    assert set(FIGURES) == set(golden)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_paper_figure_matches_golden(name, golden, figure_runs):
    values, _ = figure_runs
    assert values[name] == golden[name]


def test_every_model_function_backs_a_figure(figure_runs):
    """No paper-model function is dead weight: what no pinned figure
    runs is either deleted or allowed by name, and the allow-list holds
    no function that a figure now runs or that no longer exists."""
    _, called = figure_runs
    uncalled = sorted(
        key for key, site in _model_functions() if site not in called
    )
    assert uncalled == sorted(ALLOWED)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    table = {name: figure_value(name) for name in sorted(FIGURES)}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} figures to {GOLDEN}")
