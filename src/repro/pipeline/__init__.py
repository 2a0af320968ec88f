"""The MapReduce volume renderer built on core + render.

The namespace exports the functional renderer only.  The analysis
modules, :mod:`~repro.pipeline.workload` and
:mod:`~repro.pipeline.outofcore`, import the simulator and are imported
by name.
"""

from .combiner import FragmentCombiner
from .driver import orbit_path
from .mappers import MIP_DTYPE, MaxIntensityMapper, RayCastMapper
from .reducers import CompositeReducer, MaxReducer
from .renderer import MapReduceVolumeRenderer, RenderResult

__all__ = [
    "CompositeReducer",
    "FragmentCombiner",
    "MIP_DTYPE",
    "MapReduceVolumeRenderer",
    "MaxIntensityMapper",
    "MaxReducer",
    "RayCastMapper",
    "RenderResult",
    "orbit_path",
]
