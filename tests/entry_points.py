"""The program's entry points, as the census tests see them.

* The documented command lines: every ``run:`` step of
  ``.github/workflows/ci.yml`` (backslash continuations joined, each
  ``${{ matrix.* }}`` combination of its job substituted) and every
  fenced code block of README.md, and the ``python -m repro`` lines in
  them.
* :func:`profiled`, which records every Python function that runs in
  this thread, and :func:`functions_under`, which lists every function
  a set of source files defines, keyed the same way.
* :func:`figure_value`, one paper figure read back through
  ``repro figure NAME``.

Importing this module imports nothing of ``repro``, so a fresh
interpreter can start :func:`profiled` before the package loads.
"""

import contextlib
import inspect
import io
import itertools
import json
import os
import re
import shlex
import sys
import threading
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
README = ROOT / "README.md"
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
MATRIX_REF = re.compile(r"\$\{\{\s*matrix\.([A-Za-z0-9_-]+)\s*\}\}")
SHELL_BREAKS = {"|", "||", "&&", ";", ">", ">>", "<"}


def _matrix_combinations(job: dict) -> list:
    matrix = (job.get("strategy") or {}).get("matrix") or {}
    axes = {k: v for k, v in matrix.items() if isinstance(v, list)}
    keys = sorted(axes)
    return [dict(zip(keys, values)) for values in itertools.product(
        *(axes[k] for k in keys)
    )]


def run_scripts() -> list:
    """``(job, script)`` for every ``run:`` step, once per matrix
    combination, continuations joined and matrix values filled in."""
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
                found.append((name, script))
    return found


def readme_blocks() -> list:
    """``("README.md", block)`` for every fenced code block of the
    README, continuations joined."""
    return [
        ("README.md", block.replace("\\\n", " "))
        for block in FENCED.findall(README.read_text())
    ]


def repro_commands(scripts) -> list:
    """``(source, argv after "repro")`` for every ``python -m repro``
    line of the given scripts."""
    found = []
    for name, script in scripts:
        for line in script.splitlines():
            if "-m repro " not in line:
                continue
            tokens = shlex.split(line, comments=True)
            for i in range(len(tokens) - 2):
                if tokens[i : i + 2] == ["-m", "repro"]:
                    argv = []
                    for tok in tokens[i + 2 :]:
                        if tok in SHELL_BREAKS:
                            break
                        argv.append(tok)
                    found.append((name, argv))
    return found


def documented_commands() -> list:
    """``(source, argv)`` for every ``python -m repro`` line of the
    workflow and the README."""
    return repro_commands(run_scripts()) + repro_commands(readme_blocks())


@contextlib.contextmanager
def profiled():
    """Yield a set that fills with the ``(real path, first line)`` of
    every Python function called in the block, in this thread and in
    the threads it starts.  Other processes are not seen."""
    raw = set()

    def profile(frame, event, arg):
        if event == "call":
            raw.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    called = set()
    previous = sys.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield called
    finally:
        sys.setprofile(previous)
        threading.setprofile(None)
        called |= {(os.path.realpath(f), line) for f, line in raw}


def functions_under(paths):
    """``("<path under repro/>::<qualified name>", (real path, first
    line))`` for every function and method the given source files
    define.  Class bodies and ``<lambda>``-style code objects are not
    functions of their own."""

    def walk(code):
        for const in code.co_consts:
            if inspect.iscode(const):
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    yield const
                yield from walk(const)

    for path in sorted(paths):
        real = os.path.realpath(path)
        module = compile(path.read_text(), real, "exec")
        rel = path.relative_to(SRC).as_posix()
        for code in walk(module):
            yield f"{rel}::{code.co_qualname}", (real, code.co_firstlineno)


def figure_value(name):
    """``repro figure NAME``'s stdout: JSON for a table, raw text for a
    report."""
    from repro.cli import main as cli_main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(["figure", name]) == 0
    out = buf.getvalue()
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return out
