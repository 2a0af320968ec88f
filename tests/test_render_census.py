"""Render-side census: every function the renderer ships is reached.

It covers every function under ``src/repro/`` outside the paper model
(``sim/``, ``perfmodel/``, ``baselines/``, which
``test_every_model_function_backs_a_figure`` counts) and ``parallel/``.
A function is reached when it runs, in this process, under one of the
program's entry points:

* every ``python -m repro`` line of ``.github/workflows/ci.yml`` and
  README.md, run through ``repro.cli.main`` in one fresh interpreter
  whose profile starts before ``repro`` is imported (so what runs at
  import, or once per process, is seen whatever the session ran
  before), with output paths moved into a temporary directory;
* the 18 paper figures and the five examples at their test sizes, in
  this process (the session fixtures of ``conftest.py``, shared with
  the tests that check their output);

or when ``benchmarks/e2e/api.py`` names it in ``__all__``, resolved
through ``ast`` without importing the benchmark.  A function that no
entry point reaches is deleted, or named in :data:`ALLOWED` with the
reason it stays.  The test fails both ways: on an unreached function
that is not allowed, and on an allowed one that is reached or gone.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from entry_points import ROOT, SRC, documented_commands, functions_under
from repro.render import kernels

#: Packages outside the census: the paper model has its own, and the
#: pool runs in worker processes an in-process profile does not see.
EXCLUDED = ("sim", "perfmodel", "baselines", "parallel")
BENCHMARK_API = ROOT / "benchmarks" / "e2e" / "api.py"
POOL_WORKER = "runs in a pool worker; goes with ROADMAP 1(e)"

#: The render-side functions no entry point reaches, each with the
#: reason it stays.  Keyed ``"<path under repro/>::<qualified name>"``.
ALLOWED = {
    # The paper's MapReduce API (§3): the abstract callbacks and hooks a
    # user's job implements.
    "core/api.py::Combiner.combine": "abstract: the paper's optional combiner callback",
    "core/api.py::Mapper.map": "abstract: the paper's per-chunk map kernel",
    "core/api.py::Partitioner.partition": "abstract: the paper's key -> reducer routing",
    "core/api.py::Reducer.reduce_all": "abstract: the paper's per-key reduce",
    "core/api.py::Mapper.static_device_bytes":
        "the API's default (no constant device data); RayCastMapper overrides it",
    "pipeline/mappers.py::RayCastMapper.map":
        "implements Mapper.map, which the ABC requires; executors map through map_batch",
    # Work that happens where an in-process profile does not look.
    "core/executors.py::ShuffleSpec.owner_of": POOL_WORKER,
    "observability/tracer.py::Tracer.drain": POOL_WORKER,
    "observability/tracer.py::Tracer.events": POOL_WORKER,
    "render/kernels/c_backend.py::_build":
        "builds march.c on a cold cache; the census builds it before profiling",
    # Attributes only the benchmark reads.
    "pipeline/renderer.py::MapReduceVolumeRenderer.frame_pipeline_depth":
        "benchmarks/e2e/child.py keeps this many frames in flight",
    "render/raycast.py::RenderConfig.kernel":
        "benchmarks/e2e/child.py records which march ran",
    # A fallback that no documented run needs.
    "observability/timeline.py::json_default":
        "the trace and --stats-json dumps' fallback for a NumPy scalar; "
        "json.dump raises on one without it",
}


def _render_functions():
    return functions_under(
        path for path in SRC.rglob("*.py")
        if path.relative_to(SRC).parts[0] not in EXCLUDED
    )


def _source(module: str):
    """The file of a ``repro…`` module."""
    base = SRC.parent.joinpath(*module.split("."))
    return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")


def _definition(module: str, name: str):
    """``(real path, first line)`` of the function ``name`` that
    ``module`` defines or re-exports, or None for anything else (a
    class, a constant)."""
    path = _source(module)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            return os.path.realpath(path), first
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    source = node.module or ""
                    if node.level:  # relative to this module's package
                        package = module
                        for _ in range(node.level - (path.name == "__init__.py")):
                            package = package.rpartition(".")[0]
                        source = f"{package}.{source}" if node.module else package
                    return _definition(source, alias.name)
    return None


def _benchmark_roots() -> set:
    """The functions ``benchmarks/e2e/api.py`` exports: each name of its
    ``__all__`` imported from ``repro``, or a function of its own whose
    body imports one from ``repro``."""
    tree = ast.parse(BENCHMARK_API.read_text())
    exported = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
    )
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                imports.setdefault(alias.asname or alias.name, (node.module, alias.name))
    own = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    roots = set()
    for name in exported:
        targets = [imports[name]] if name in imports else [
            (n.module, alias.name) for n in ast.walk(own[name])
            if isinstance(n, ast.ImportFrom)
            for alias in n.names
        ]
        for module, attr in targets:
            site = _definition(module, attr)
            if site is not None:
                roots.add(site)
    return roots


_CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from entry_points import profiled

with profiled() as called, contextlib.redirect_stdout(io.StringIO()):
    from repro.cli import main
    for argv in json.loads(sys.argv[2]):
        assert main(argv) == 0, argv
with open(sys.argv[3], "w") as fh:
    json.dump(sorted(called), fh)
"""


@pytest.fixture(scope="module")
def command_runs(tmp_path_factory):
    """The functions every documented ``python -m repro`` line calls."""
    out = tmp_path_factory.mktemp("commands")
    commands = [
        [str(out / os.path.basename(a)) if a.startswith("/tmp/") else a for a in argv]
        for _source, argv in documented_commands()
    ]
    # The C march is built here if the cache is cold, so the child only
    # loads it: a build is no entry point's work.
    kernels.resolve()
    record = out / "called.json"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "tests"), json.dumps(commands), str(record)],
        cwd=out, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {tuple(site) for site in json.loads(record.read_text())}


def test_benchmark_roots_resolve():
    """Every function the benchmark imports is found (the resolver
    follows package re-exports)."""
    roots = _benchmark_roots()
    names = {
        key for key, site in _render_functions() if site in roots
    }
    assert {"cli.py::main", "render/stitch.py::stitch_pixels",
            "core/sort.py::counting_sort_pairs",
            "bench/results.py::collect_environment"} <= names


def test_every_render_function_is_reached(command_runs, figure_runs, example_runs):
    """No render-side function is dead weight: what no entry point
    reaches is either deleted or allowed by name, and the allow-list
    holds no function that an entry point now reaches or that no longer
    exists."""
    reached = command_runs | figure_runs[1] | example_runs[1] | _benchmark_roots()
    unreached = sorted(
        key for key, site in _render_functions() if site not in reached
    )
    assert unreached == sorted(ALLOWED)
    assert all(ALLOWED.values())
