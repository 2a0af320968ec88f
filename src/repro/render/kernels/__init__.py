"""Pluggable march-kernel backends for the blocked ray caster.

``raycast_bricks`` owns everything *around* the march — ray generation,
slab intersection, ownership intervals, empty-space structure
build/caching, the occupied-box trim, launch formation, and fragment
emission.  What happens *inside* a launch is the kernel contract
captured by :class:`MarchPlan` + :class:`KernelSpec`.  A plan is
**launch-shaped**: the concatenated active rays of one or more bricks
(:class:`BrickSegment`), each ray marching against its own brick's
payload.  Per ray the kernel performs:

* trilinear gather of each owned sample inside the ray's trim interval
  ``[lead, trail)`` (ravel-offset addressing, the optional clamp fold,
  degenerate-axis strides) — samples outside it are ones the skip table
  drops, so a kernel may not even position them;
* transfer-function ``table_coord`` + the exact per-sample empty-space
  filter ``u > u_thr`` and the corner-max skip-table probe at the
  gather's support base;
* TF lookup + opacity correction, optional Levoy/Phong shading;
* the front-to-back fold with block-granular early ray termination,
  writing the per-ray accumulators (``acc_rgb``/``acc_a``/``term``)
  in place;
* sample accounting: ``march`` returns, per segment, the number of
  *owned* samples of every live block, counted before any empty-space
  elision, exactly as ``MapStats.n_samples`` has always counted them
  (the caller multiplies by ``fetches_per_sample``), and the number it
  actually positioned (``MapStats.n_positioned``, a cost diagnostic).

Backends
--------
``numpy``
    The blocked/vectorized fold over the whole launch at once: the
    segments' payloads form one atlas and brick-wide parameters are
    expanded per sample, so interpreter dispatch is paid per launch,
    not per brick (a launch of one keeps them scalar).  Always
    available; the conformance oracle for every other backend.
``numba``
    ``@njit(cache=True, fastmath=False)`` per-ray march loops that fuse
    gather + lookup + composite into one pass, run once per segment
    (:mod:`~repro.render.kernels.numba_backend`).  Optional: resolved
    only when ``numba`` imports.
``auto``
    ``numba`` when importable, else ``numpy`` (with a single
    once-per-process :class:`RuntimeWarning`).  Explicitly requesting
    ``"numba"`` on a box without it raises instead, with install
    guidance — a pinned backend must never silently change.

Bitwise vs. tolerance-band parity (the conformance contract)
------------------------------------------------------------
The numba marcher mirrors the numpy fold's arithmetic operation by
operation — the same float32/float64 mixed-precision walk NumPy's
promotion rules actually produce (positions and trilinear lerps carry
float64 via the int32->float32-scalar promotions; table coordinates,
lookups, opacity correction and all accumulators are float32), the same
truncation casts, the same clamp folds, and the same per-block
accumulation order (block-local transmittance folded into the carried
accumulators through ``t_prior = 1 - acc_a``, sums in
``np.add.reduceat``'s sequential order).  Consequently these are
**exact** across backends:

* fragment keys and the kept/emitted sets (``acc_a`` is nonzero iff
  some filter-passing sample had nonzero TF alpha — a structural fact,
  not a rounding one, at the default ``alpha_eps=0``);
* fragment depths (``t0`` per ray, computed outside the kernel);
* every ``MapStats`` counter (``n_samples`` counts owned samples before
  elision; the skip decisions themselves — the skip-table probe and the
  exact filter ``u > u_thr`` — compare bitwise-identical ``u`` values);
* which samples are visible, and their per-sample RGBA inputs to the
  fold.

Two operations are **tolerance-band** (colors only), and golden images
for the numba backend are therefore compared within the same
``2e-4``/``5e-4`` (shaded) band the blocked-vs-reference suite already
uses rather than pinned bitwise:

* the in-block transmittance: numpy computes it with a Hillis–Steele
  *doubling scan* (``segmented_exclusive_cumprod``) whose float
  association differs from the numba backend's sequential running
  product for runs of three or more visible samples — last-ulp
  differences in ``trans`` and hence in the folded colors;
* ``x ** y`` on float32 (opacity correction at ``dt != 1`` and the
  Phong specular term): NumPy's ``npy_powf`` and LLVM's libm ``powf``
  may round differently in the last ulp.

Theoretical knife-edges (never observed in the suites, documented for
completeness): a color-band difference can flip ``acc_a >= ert_alpha``
or ``acc_a > alpha_eps`` (with a nonzero ``alpha_eps``) exactly at the
threshold, changing a termination point or a kept-set membership by one
ulp of accumulated alpha.  The default configs (``alpha_eps=0``) are
immune to the latter by the structural argument above.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "BrickSegment",
    "KERNEL_CHOICES",
    "KernelSpec",
    "MarchPlan",
    "available_backends",
    "resolve_kernel",
]

#: Accepted values of ``RenderConfig.kernel`` / ``--kernel``.
KERNEL_CHOICES = ("auto", "numpy", "numba")

# "auto" fell back to numpy: warn once per process, not once per brick.
_FALLBACK_WARNED = False


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
    ray_lo: int
    ray_hi: int


@dataclass
class MarchPlan:
    """One launch: the active rays of one or more bricks, marched together.

    The per-ray arrays are the concatenation of the segments' rays in
    segment order; every ray marches against its own segment's payload.
    Inputs are read-only to the kernel; ``acc_rgb``/``acc_a``/``term``
    are the per-ray accumulators the kernel mutates in place.  ``march``
    returns the owned-sample count (pre-elision) of each segment so the
    caller can charge ``MapStats.n_samples`` uniformly across backends,
    and the positioned-sample count beside it.

    Rays never interact, so a ray's result does not depend on which
    other bricks share its launch: a fused launch is bitwise the
    launch-of-one results concatenated (the property
    ``tests/test_fused_launch.py`` pins).
    """

    segments: tuple  # of BrickSegment; every segment has ≥ 1 ray
    # Per-ray march state.
    counts: np.ndarray  # (n,) int64 owned sample counts
    t0: np.ndarray  # (n,) float32 t of each ray's first owned sample
    dirs: np.ndarray  # (n, 3) float32 ray directions
    dt: float  # step length (voxel units)
    block_size: int
    use_ert: bool
    ert_alpha: float
    # Empty-space machinery (both optional; both conservative).
    u_thr: float  # exact filter threshold (−1: none, +inf: all empty)
    # Occupied-box trim: (n,) int64 ordinals, 0 <= lead, trail <= counts.
    # Every sample of ray i outside [lead[i], trail[i]) is one the skip
    # table drops, so only that interval need be positioned; block
    # windows, ERT points and the owned count stay those of ``counts``.
    # Both None when no brick of the launch has anything to trim.
    lead: Optional[np.ndarray]
    trail: Optional[np.ndarray]
    # Classification + shading.
    tf: "TransferFunction1D"  # noqa: F821 - transfer.TransferFunction1D
    shading: bool
    # Outputs (mutated in place).
    acc_rgb: np.ndarray  # (n, 3) float32
    acc_a: np.ndarray  # (n,) float32
    term: np.ndarray  # (n,) bool


@dataclass(frozen=True)
class KernelSpec:
    """A resolved march backend.

    ``march(plan) -> (owned, positioned) samples per segment`` runs one
    launch's blocked march; ``warmup()`` performs any one-time
    compilation (a no-op for numpy, the JIT compile for numba) so pool
    workers can pay it at spawn, off the frame critical path.
    """

    name: str
    march: Callable[[MarchPlan], tuple[Sequence[int], Sequence[int]]]
    warmup: Callable[[], None]


def available_backends() -> tuple[str, ...]:
    """Concrete backends importable in this process (numpy always is)."""
    from . import numba_backend

    return ("numpy", "numba") if numba_backend.available() else ("numpy",)


def resolve_kernel(name: str = "auto", *, warn: bool = True) -> KernelSpec:
    """Resolve a ``RenderConfig.kernel`` value to a concrete backend.

    ``"numpy"`` and ``"numba"`` are strict: the numba backend raises a
    ``RuntimeError`` with install guidance when numba is missing (a
    pinned backend must never silently change — pool workers rely on
    this to fail fast instead of diverging from their parent).
    ``"auto"`` prefers numba and falls back to numpy with one
    per-process :class:`RuntimeWarning` (suppressed with
    ``warn=False`` — e.g. environment probes).
    """
    global _FALLBACK_WARNED
    if name not in KERNEL_CHOICES:
        raise ValueError(
            f"kernel must be one of {KERNEL_CHOICES}, got {name!r}"
        )
    from . import numba_backend, numpy_backend

    if name == "numpy":
        return numpy_backend.SPEC
    if name == "numba":
        if not numba_backend.available():
            raise RuntimeError(
                "kernel='numba' requested but numba is not importable "
                f"({numba_backend.import_error()!r}); install it with "
                "`pip install -e .[numba]` or select kernel='auto' / "
                "'numpy'"
            )
        return numba_backend.SPEC
    # auto
    if numba_backend.available():
        return numba_backend.SPEC
    if warn and not _FALLBACK_WARNED:
        _FALLBACK_WARNED = True
        warnings.warn(
            "kernel='auto': numba is not importable — falling back to "
            "the numpy march kernel (install the compiled backend with "
            "`pip install -e .[numba]`)",
            RuntimeWarning,
            stacklevel=2,
        )
    return numpy_backend.SPEC
