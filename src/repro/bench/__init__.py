"""The paper's figure experiments on the simulated cluster, their
tables, and the provenance block of every benchmark document.

``tests/test_paper_claims.py`` checks the figures' shape and
``tests/test_paper_figures.py`` pins their values; the repo's benchmark
is ``BENCHMARK.json`` with ``benchmarks/e2e/``.
"""

from .experiments import (
    GPU_COUNTS,
    PAPER_SIZES,
    ablation_compositing,
    ablation_partitioners,
    ablation_reduce_device,
    ablation_sort_device,
    exec_vs_sim_validation,
    fig3_breakdown,
    fig4_scaling,
    figure_camera,
    micro_transfer_costs,
    paraview_reference,
    sec63_bottleneck,
    sim_render,
)
from .reporting import format_series, format_table
from .results import collect_environment

__all__ = [
    "GPU_COUNTS",
    "PAPER_SIZES",
    "ablation_compositing",
    "ablation_partitioners",
    "ablation_reduce_device",
    "ablation_sort_device",
    "collect_environment",
    "exec_vs_sim_validation",
    "fig3_breakdown",
    "fig4_scaling",
    "figure_camera",
    "format_series",
    "format_table",
    "micro_transfer_costs",
    "paraview_reference",
    "sec63_bottleneck",
    "sim_render",
]
