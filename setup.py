"""Setup shim.

The offline environment lacks the ``wheel`` package, so PEP 517/660
builds cannot produce editable wheels; this classic setup.py lets
``pip install -e . --no-build-isolation`` fall back to the legacy
``setup.py develop`` path.

NumPy is the only runtime dependency.  Extras:

* ``numba`` — the optional compiled march-kernel backend
  (``repro.render.kernels.numba_backend``); install with
  ``pip install -e .[numba]``.  Without it the renderer falls back to
  the pure-NumPy kernel (``kernel="auto"`` warns once per process;
  ``kernel="numba"`` raises).
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
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "numba": ["numba"],
    },
)
