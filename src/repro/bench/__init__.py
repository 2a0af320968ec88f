"""The provenance block of every benchmark document
(:func:`repro.bench.results.collect_environment`).

The repo's benchmark is ``BENCHMARK.json`` with ``benchmarks/e2e/``;
the paper's simulated figures live in :mod:`repro.sim.figures`.
"""
