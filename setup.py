"""Setup shim.

The offline environment lacks the ``wheel`` package, so PEP 517/660
builds cannot produce editable wheels; this classic setup.py lets
``pip install -e . --no-build-isolation`` fall back to the legacy
``setup.py develop`` path.

NumPy is the only runtime dependency.  The C march
(``repro/render/kernels/march.c``) ships as source: the first render on
a machine compiles it with the system C compiler into a per-user cache,
and where no compiler exists the NumPy march runs with the same bits.

Extras:

* ``test`` — what ``tests/`` and ``benchmarks/e2e/`` import beyond the
  runtime:
  ``pip install -e .[test] --no-build-isolation``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-hpdc-mapreduce-volren",
    version="0.1.0",
    description=(
        "Reproduction of a MapReduce-style multi-GPU volume renderer "
        "(HPDC'10) on a simulated cluster"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.render.kernels": ["march.c"]},
    # NumPy 2.4, which produced every pinned number, needs Python 3.11.
    python_requires=">=3.11",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "hypothesis", "pyyaml"],
    },
)
