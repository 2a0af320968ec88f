"""Session fixtures: the profiled runs the census tests share.

The 18 paper figures and the five examples each run once per session,
under :func:`entry_points.profiled`.  ``test_paper_figures.py`` and
``test_examples.py`` check their output; the two censuses
(``test_every_model_function_backs_a_figure`` and
``test_render_census.py``) read which functions they called.
"""

import contextlib
import importlib.util
import io

import pytest

from entry_points import ROOT, figure_value, profiled

EXAMPLES = ROOT / "examples"

#: example -> main's arguments, given an output directory
EXAMPLE_ARGS = {
    "bottleneck_analysis": lambda out: (),
    "out_of_core": lambda out: (str(out),),
    "pluggable_pipeline": lambda out: (str(out),),
    "quickstart": lambda out: (str(out),),
    "scaling_study": lambda out: (True,),
}


@pytest.fixture(scope="session")
def figure_runs():
    """``(values, called)``: every figure's value, and the
    ``(real path, first line)`` of each Python function that ran while
    they were computed."""
    from repro.sim.figures import FIGURES

    with profiled() as called:
        values = {name: figure_value(name) for name in sorted(FIGURES)}
    return values, called


@pytest.fixture(scope="session")
def example_runs(tmp_path_factory):
    """``(outputs, called)``: each example's stdout from ``main()`` at
    its quick size, and the functions that ran while they did."""
    outputs = {}
    with profiled() as called:
        for name, args in sorted(EXAMPLE_ARGS.items()):
            spec = importlib.util.spec_from_file_location(
                f"example_{name}", EXAMPLES / f"{name}.py"
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                module.main(*args(tmp_path_factory.mktemp(name)))
            outputs[name] = buf.getvalue()
    return outputs, called
