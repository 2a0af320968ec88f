"""repro — Multi-GPU Volume Rendering using MapReduce (Stuart et al., 2010).

A reproduction of the paper's system in Python/NumPy, in two halves.

The functional renderer, which this namespace exports:

* :mod:`repro.core` — the MapReduce library (Map / Partition / Sort /
  Reduce with the paper's volume-rendering specialisations);
* :mod:`repro.render` — the ray-casting kernel, transfer functions,
  fragment compositing;
* :mod:`repro.volume` — volumes, procedural datasets, bricking, the
  ``.bvol`` out-of-core container;
* :mod:`repro.pipeline` — the end-to-end renderer
  (:class:`~repro.pipeline.MapReduceVolumeRenderer`);
* :mod:`repro.parallel` — the shared-memory multiprocess executor,
  imported by name (``executor="pool"`` loads it), so an in-process
  render loads none of it.

The analysis half regenerates the paper's figures and is imported by
name; it may import the functional half, never the reverse:
:mod:`repro.sim` (the discrete-event stand-in for the NCSA Accelerator
Cluster), :mod:`repro.pipeline.workload` (the analytic workload and the
simulator's front end), :mod:`repro.perfmodel` (VPS/FPS and the §6.3
analysis) and :mod:`repro.baselines` (the ParaView and binary-swap
comparators).  :mod:`repro.sim.figures` holds one experiment per figure
and the registry ``repro figure NAME`` prints.  :mod:`repro.bench`
holds only the provenance block of benchmark documents.

Quickstart::

    from repro import MapReduceVolumeRenderer, make_dataset, orbit_camera

    vol = make_dataset("skull", (64, 64, 64))
    cam = orbit_camera(vol.shape, width=256, height=256)
    result = MapReduceVolumeRenderer(volume=vol, cluster=4).render(cam)
    # result.image is a (256, 256, 4) premultiplied RGBA array
"""

from .pipeline import MapReduceVolumeRenderer, RenderResult
from .render import (
    Camera,
    RenderConfig,
    TransferFunction1D,
    bone_tf,
    default_tf,
    fire_tf,
    grayscale_tf,
    orbit_camera,
    render_reference,
    write_ppm,
)
from .volume import BrickGrid, BvolReader, Volume, make_dataset, write_bvol

__version__ = "1.0.0"

__all__ = [
    "BrickGrid",
    "BvolReader",
    "Camera",
    "MapReduceVolumeRenderer",
    "RenderConfig",
    "RenderResult",
    "TransferFunction1D",
    "Volume",
    "bone_tf",
    "default_tf",
    "fire_tf",
    "grayscale_tf",
    "make_dataset",
    "orbit_camera",
    "render_reference",
    "write_bvol",
    "write_ppm",
    "__version__",
]
