"""The CI workflow's ``repro render`` command lines still parse.

Nothing runs ``.github/workflows/ci.yml`` before it is pushed, so a CLI
flag removed from :func:`repro.cli.build_parser` but still passed by a
CI step would only fail on the runner.  This test reads the workflow,
joins each ``run:`` step's backslash continuations, substitutes every
``${{ matrix.* }}`` combination of its job, and parses every
``python -m repro render …`` line with the real parser.
"""

import itertools
import re
import shlex
from pathlib import Path

import pytest
import yaml

from repro.cli import build_parser

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"
MATRIX_REF = re.compile(r"\$\{\{\s*matrix\.([A-Za-z0-9_-]+)\s*\}\}")
SHELL_BREAKS = {"|", "||", "&&", ";", ">", ">>", "<"}


def _matrix_combinations(job: dict) -> list:
    matrix = (job.get("strategy") or {}).get("matrix") or {}
    axes = {k: v for k, v in matrix.items() if isinstance(v, list)}
    keys = sorted(axes)
    return [dict(zip(keys, values)) for values in itertools.product(
        *(axes[k] for k in keys)
    )]


def _render_commands() -> list:
    """``(job, argv after "render")`` for every render line in the
    workflow, once per matrix combination."""
    doc = yaml.safe_load(WORKFLOW.read_text())
    found = []
    for name, job in doc["jobs"].items():
        for combo in _matrix_combinations(job):
            for step in job.get("steps", []):
                script = step.get("run")
                if not script:
                    continue
                script = script.replace("\\\n", " ")
                script = MATRIX_REF.sub(lambda m: str(combo[m.group(1)]), script)
                for line in script.splitlines():
                    if "repro render" not in line:
                        continue
                    tokens = shlex.split(line, comments=True)
                    for i in range(len(tokens) - 2):
                        if tokens[i : i + 3] == ["-m", "repro", "render"]:
                            argv = []
                            for tok in tokens[i + 2 :]:
                                if tok in SHELL_BREAKS:
                                    break
                                argv.append(tok)
                            found.append((name, argv))
    return found


COMMANDS = _render_commands()


def test_workflow_has_render_lines():
    jobs = {name for name, _ in COMMANDS}
    assert {"fault-injection", "bench-regression"} <= jobs


@pytest.mark.parametrize(
    "job,argv", COMMANDS, ids=[f"{job}-{i}" for i, (job, _) in enumerate(COMMANDS)]
)
def test_every_ci_render_line_parses(job, argv):
    assert not any("${{" in tok for tok in argv), argv
    args = build_parser().parse_args(argv)
    assert args.command == "render"
