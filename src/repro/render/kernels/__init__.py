"""The per-ray kernels of the blocked ray caster: one arithmetic contract,
two implementations that give the same bits.

``cast_launch`` keeps what belongs to a brick (its cached empty-space
structures, its :class:`BrickSegment` and its counters); everything done
per *ray* is a kernel, and a launch makes two kernel calls:

* :func:`setup` (:class:`SetupPlan` → :class:`LaunchRays`) — each
  footprint ray's key and direction, the float32 slab tests against its
  own brick's box and the whole-volume box, compaction to the active
  rays, their owned-sample intervals and first-sample ``t``, and each
  brick's owned-sample total (which decides whether an uncached
  corner-max table is worth building);
* :func:`march` (:class:`MarchPlan`, **launch-shaped**: the active rays
  of one or more bricks, each marching against its own brick's
  payload) — per ray, the occupied-box trim (a slab test against the
  box of its brick's occupied table cells gives the ordinals ``[lead,
  trail)`` outside which the table drops every sample); the trilinear
  gather of each positioned sample, ``table_coord``, the exact filter
  ``u > u_thr`` and the skip-table probe at the gather's base; the
  lookup in the opacity-corrected transfer function and optional Phong
  shading; the front-to-back fold with block-granular early ray
  termination, checked every :data:`BLOCK_SIZE` owned samples; the
  emit (a fragment per ray that owns a sample and carries any alpha —
  the paper's "ray fragments with no contributions are discarded" —
  over a placeholder per footprint ray with ``emit_placeholders``); and
  per segment the *owned* samples of every live block, counted before
  any elision (``MapStats.n_samples``), the positioned ones
  (``MapStats.n_positioned``) and the kept fragments.

The contract is NumPy's own arithmetic in
:mod:`~repro.render.kernels.numpy_backend`: float32 slab tests
(``geometry.box_intersect_f32``: NaN-propagating ``np.maximum`` /
``np.minimum``, float32 infinities for parallel rays), float32 ordinals
(``ceil``/``floor``, ``np.fmin``/``np.fmax``, int64 casts), then float64
sample ``t``, positions, clamps and lerps (the int32 × float32-scalar
promotion in the raycast module's "Float widths"), float32 table
coordinates, lookups and fold, the Hillis–Steele in-block scan and
``np.add.reduceat``'s association.  Nothing in it is a transcendental or
depends on the CPU's SIMD dispatch, so the golden fixtures pin it bit
for bit on every host.

``c`` is ``march.c`` (``repro_setup``, ``repro_march``): one ray — or
four lanes of rays — at a time, every operation in the same width and
association, built ``-O3 -ffp-contract=off`` into a per-user cache and
loaded with ctypes (:mod:`~repro.render.kernels.c_backend`, which checks
every buffer it hands over); it holds no GIL and runs every unshaded
launch over float32 payloads.  ``numpy`` is the reference and runs
wherever C cannot: no compiler, a failed build or ``dlopen``, a refused
cache directory, a shaded launch or a non-float32 payload.  The
fused-launch, trim, launch-kernel and golden suites assert byte
equality between the two, so which one ran is not a mode; telemetry
(``map.march``, ``map.march_reason``) and ``collect_environment()``
record it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "BLOCK_SIZE",
    "BrickSegment",
    "LaunchRays",
    "MarchPlan",
    "SetupPlan",
    "march",
    "resolve",
    "setup",
]

#: Owned samples each march folds per ray per iteration; early ray
#: termination is checked between blocks.  Both marches take it from
#: here (the raycast module's "Blocked marching" says why 8).
BLOCK_SIZE = 8


@dataclass
class SetupPlan:
    """One launch's ray set-up: brick ``i`` casts the rays of
    ``rects[i]`` against its core box ``cores[i]``."""

    camera: "Camera"  # noqa: F821 - camera.Camera
    rects: np.ndarray  # (B, 4) int footprints [x0, y0, x1, y1] inside the viewport
    cores: np.ndarray  # (B, 2, 3) float32 core boxes [lo, hi]
    volume_shape: tuple  # the whole-volume box [0, volume_shape)
    dt: float
    shading: bool  # with float32 (every payload float32): may C run?
    float32: bool


@dataclass
class LaunchRays:
    """A launch's active rays in brick order, as :func:`setup` leaves them."""

    ray_cuts: np.ndarray  # (B+1,) brick i's footprint rays are [ray_cuts[i], ray_cuts[i+1])
    active: np.ndarray  # (n,) int64 footprint index of each active ray
    keys: np.ndarray  # (n,) int32 pixel keys
    dirs: np.ndarray  # (n, 3) float32 unit directions
    kf: np.ndarray  # (n,) int64 first owned global sample
    counts: np.ndarray  # (n,) int64 owned sample counts
    t0: np.ndarray  # (n,) float32 t of each ray's first owned sample
    cuts: np.ndarray  # (B+1,) brick i's active rays are [cuts[i], cuts[i+1])
    owned: np.ndarray  # (B,) int64 owned samples per brick


@dataclass
class BrickSegment:
    """One brick's slice of a launch: its payload and the brick-wide
    march parameters of rays ``[ray_lo, ray_hi)`` of the plan."""

    data: np.ndarray  # 3-D payload (shading's gradient taps)
    flat: np.ndarray  # contiguous ravel of ``data``
    shape: tuple  # payload dims (nx, ny, nz)
    need_clamp: bool  # fold clamp-to-edge into the coordinates?
    base_w: np.ndarray  # (3,) float32 lattice origin (eye − data_lo − ½)
    skip_table: Optional[np.ndarray]  # flat corner-max table, or None
    box: Optional[np.ndarray]  # (2, 3) float32 occupied box (lattice), or None
    ray_lo: int
    ray_hi: int


@dataclass
class MarchPlan:
    """One launch: the active rays of one or more bricks, trimmed,
    marched and emitted together.

    The per-ray arrays are the concatenation of the segments' rays in
    segment order; every ray marches against its own segment's payload.
    Inputs are read-only to the kernel except the per-ray accumulators
    ``acc_rgb``/``acc_a``/``term`` and the trim ordinals it fills in.
    Rays never interact, so a fused launch is bitwise the launch-of-one
    results concatenated (``tests/test_fused_launch.py``).
    """

    segments: tuple  # of BrickSegment; every segment has ≥ 1 ray
    # Per-ray march state.
    counts: np.ndarray  # (n,) int64 owned sample counts
    t0: np.ndarray  # (n,) float32 t of each ray's first owned sample
    dirs: np.ndarray  # (n, 3) float32 ray directions
    dt: float  # step length (voxel units)
    use_ert: bool
    ert_alpha: float
    # Empty-space machinery (both optional; both conservative).
    u_thr: float  # exact filter threshold (−1: none, +inf: all empty)
    # Occupied-box trim: (n,) int64 ordinals 0 <= lead, trail <= counts
    # the march derives from the boxes (None: no finite face).  Only
    # samples in [lead[i], trail[i]) are positioned; block windows, ERT
    # points and the owned count stay those of ``counts``.
    lead: Optional[np.ndarray]
    trail: Optional[np.ndarray]
    # The transfer function, already corrected for ``dt``
    # (TransferFunction1D.opacity_corrected).
    tf: "TransferFunction1D"  # noqa: F821 - transfer.TransferFunction1D
    shading: bool
    # Outputs (mutated in place).
    acc_rgb: np.ndarray  # (n, 3) float32
    acc_a: np.ndarray  # (n,) float32
    term: np.ndarray  # (n,) bool
    # Emit.
    keys: np.ndarray  # (n,) int32 pixel keys
    active: np.ndarray  # (n,) int64 footprint index of each ray
    n_rays: int  # footprint rays of the launch (one placeholder each)
    emit_placeholders: bool


_OPEN = np.array([[-np.inf] * 3, [np.inf] * 3], dtype=np.float32)


def trim_boxes(segments) -> Optional[np.ndarray]:
    """``(nseg, 2, 3)`` float32 occupied boxes, open where a segment has
    none; None when no box has a finite face (nothing to trim)."""
    boxes = np.array([_OPEN if s.box is None else s.box for s in segments], dtype=np.float32)
    return boxes if (boxes != _OPEN).any() else None


def _import_backends() -> None:
    """Import both kernel modules, which binds each as a global of this
    package.  Not at load time: ``c_backend`` brings ctypes and
    subprocess into every process that imports the renderer, and
    ``numpy_backend`` imports the raycast module, which imports this
    package."""
    from . import c_backend, numpy_backend  # noqa: F401


def resolve() -> tuple[str, str]:
    """``(march, reason)``: the kernels this process runs for an
    unshaded float32 launch (``"c"`` or ``"numpy"``) and why."""
    return _kernels(False, True)[::2]


def _kernels(shading: bool, float32: bool) -> tuple:
    """``(name, kernels, reason)``: C where it can run, else NumPy."""
    if "c_backend" not in globals() or "numpy_backend" not in globals():
        _import_backends()  # either may be bound alone by a direct import
    lib, reason = c_backend.load()  # noqa: F821 - both bound by _import_backends
    if lib is not None and (shading or not float32):
        lib, reason = None, "shaded launch" if shading else "non-float32 payload"
    return ("c", lib, reason) if lib is not None else ("numpy", numpy_backend, reason)


def setup(plan: SetupPlan) -> LaunchRays:
    """Set up one launch's rays (one C call, or the NumPy passes)."""
    return _kernels(plan.shading, plan.float32)[1].setup(plan)


def march(plan: MarchPlan) -> tuple:
    """Trim, march and emit one launch: ``(fragments, owned, positioned,
    kept, march, reason)`` — the launch's fragment array, the owned /
    positioned samples and kept fragments per segment, the march that
    ran and why."""
    name, kernels, reason = _kernels(
        plan.shading, all([s.flat.dtype == np.float32 for s in plan.segments])
    )
    return (*kernels.launch(plan), name, reason)
