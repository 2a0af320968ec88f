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
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.sim.figures import FIGURES

GOLDEN = Path(__file__).with_name("golden") / "paper_figures.json"


def compute(name):
    """``repro figure NAME``'s stdout: JSON for a table, raw text for a
    report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(["figure", name]) == 0
    out = buf.getvalue()
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_figure(golden):
    assert set(FIGURES) == set(golden)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_paper_figure_matches_golden(name, golden):
    assert compute(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: {sys.argv[0]} --regen")
    table = {name: compute(name) for name in sorted(FIGURES)}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} figures to {GOLDEN}")
