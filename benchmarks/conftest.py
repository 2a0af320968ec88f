"""Provenance for the kernel micro-benchmarks.

``benchmarks/run_kernels.sh`` runs ``bench_kernels.py`` under
pytest-benchmark; the hook below stamps the environment it ran in into
the JSON document it saves.
"""

import pytest


@pytest.hookimpl(optionalhook=True)
def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Stamp environment provenance into every saved benchmark JSON.

    ``optionalhook``: tier-1 CI collects this conftest without
    pytest-benchmark installed, where the hook spec does not exist.
    """
    from repro.bench.results import collect_environment

    output_json["environment"] = collect_environment()
