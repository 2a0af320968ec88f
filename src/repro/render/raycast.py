"""The ray-casting map kernel — a blocked, fully vectorized marcher.

This is the functional equivalent of the paper's CUDA kernel (§3.2):

* rays are generated for the (block-padded) sub-image each chunk
  projects onto — one "thread" per pixel — and the bricks of a map task
  march **together in one launch** (:func:`raycast_bricks`), the way the
  paper's launch cost is spread over many thousands of threads;
* all rays are intersected against the brick's bounding box and
  non-intersecting rays are immediately discarded;
* surviving rays advance with **fixed increments** and non-adaptive
  **trilinear** sampling, apply the 1-D transfer function per sample, and
  accumulate **front-to-back** with early ray termination;
* each ray emits one fragment (key = pixel index, value = depth +
  premultiplied RGBA); useless rays emit a placeholder.

Global-t sampling and interval ownership
----------------------------------------
Sample positions are ``t_k = t_volume_entry + (k + ½)·dt`` where
``t_volume_entry`` is the ray's entry into the *full volume* box — a
quantity every brick computes identically.  A brick owns the contiguous
run of sample indices ``k ∈ [k_first, k_last)`` carved out of its
slab-test interval ``[t_near, t_far)`` by one shared formula
(``ceil((t − t_volume_entry)/dt − ½)``).  Because two face-adjacent
bricks compute the shared face's t-value with bitwise-identical
arithmetic, ``k_last`` of one brick equals ``k_first`` of the next: the
per-brick runs partition every ray exactly, with no per-sample
containment test at all, so compositing the per-brick fragments in depth
order reproduces the single-pass image (up to float32 associativity).
This is the invariant the whole MapReduce pipeline is tested against.
(The one theoretical exception is a ray travelling exactly parallel to
and *inside* a shared brick face, which both bricks claim; cameras with
finite-precision normalized directions do not produce such rays.)

Fused launches
--------------
One brick's footprint is only a couple of thousand rays, so
:func:`cast_launch` casts the **whole brick list as one launch** of two
kernel calls (:mod:`repro.render.kernels`), each one C call when the
process has the C kernels.  A launch arrives as arrays, and its bricks'
padded footprints are one ``(B, 4)`` int array ``[x0, y0, x1, y1]``
from the projection (:meth:`~repro.render.camera.Camera.box_rects`)
to the C call:

* *set-up* (``kernels.setup``) — every footprint ray's key and
  direction, one float32 slab test against its *own* brick's box and
  one against the whole-volume box, compaction to the active rays in
  brick order, their ownership intervals and first-sample ``t``, and
  each brick's owned-sample total;
* *trim, march and emit* (``kernels.march``) — the occupied-box trim
  below, the blocked march, and one fragment per contributing ray (or
  a placeholder per footprint ray); a brick's fragments are a view of
  the launch's array.

Between the two, :func:`cast_launch` does only what is the brick's own:
one look-up (or first build) of its cached empty-space structures and
its :class:`~repro.render.kernels.BrickSegment`; its counters come back
as one row per brick.  Rays never interact, so any grouping of bricks
is bitwise the bricks cast one by one; :func:`raycast_bricks` is a
launch of :class:`BrickTask` records and :func:`raycast_brick` a launch
of one, through the same lines.  Callers bound a launch with
:func:`cut_launches` (``LAUNCH_RAY_BUDGET`` footprint rays: per-launch
buffers, and with them peak memory, grow with the rays in flight).

Blocked marching
----------------
The marcher folds each live ray's next
:data:`~repro.render.kernels.BLOCK_SIZE` (8) owned samples at once:
the block's sample list comes straight from the ownership intervals
(ownership is a mask by construction, not a test); a
conservative corner-max empty-space table (built when the sample count
warrants it) drops samples whose transfer-function alpha is provably
exactly zero *before* the gather; one flattened ravel-offset trilinear
gather and one transfer-function lookup serve the rest; and the
front-to-back fold is closed-form — the transmittance in front of every
sample is a segmented exclusive product scan of ``(1 − α)`` scaled by
the transmittance carried in from earlier blocks.

Early ray termination runs at **block granularity**: after each block,
rays whose accumulated alpha reached ``ert_alpha`` stop marching.
Within a block all owned samples are processed (and counted in
``MapStats.n_samples``).  The block length is a constant, not a knob:
8 covers a typical 16³-brick crossing in one or two blocks while
keeping ERT waste low, and a sweep that retired the knob found it
fastest — one 32³ brick at 128², ``dt`` 1, took 6.75 / 6.40 / 7.98 ms
at block 1 / 8 / 64 (medians, C march, 2-core Xeon VM).  Every golden
fixture pins the arithmetic of blocks of 8.

Occupied-box trim
-----------------
The corner-max table still *positions* every owned sample before it can
discard one, and positioning is the march's largest phase.  The paper's
kernel discards what misses the brick's bounding box before a sample is
taken; the trim does the same one level down.  Every brick with a table
also has the **axis-aligned box of the table's ``True`` cells**
(:func:`_occupied_box`, built and cached with the table).  The march
kernel slab-tests each ray against its own brick's occupied box and
turns the hit interval into sample ordinals ``[lead, trail) ⊆ [0,
count)``; each block then positions only the ordinals of its window in
that interval.  Rays stay in the launch, footprints are not shrunk,
trimmed bricks fuse like any other, and a launch in which no brick's
box has a finite face makes no third slab test.

Conservative-skip proof obligation: ``accel="table"`` must be **bitwise
identical** to ``accel="off"``, counters included.  Three facts carry
it:  (1) the box is a superset of the table's ``True`` cells under the
march's own arithmetic — a cell covers the lattice coordinates
``[i, i+1)`` of its base, a face on the payload's first / last cell is
open because clamp-to-edge maps every outside coordinate onto it, and
the ordinal interval keeps one sample of slack per side against the
float32 slab test (off by ≈ 2e-7·t, so the trim needs ``dt`` well above
that — the ownership intervals need the same) — so the trim removes
only samples the table then drops, which every path also removes before
the transmittance scan, leaving the scan's operand list — and hence
float association — unchanged;  (2) the block structure is untouched:
block windows still count ``BLOCK_SIZE`` ordinals from the ray's first
*owned* sample, and a ray sits out only the blocks whose window misses
its interval — where it would position nothing, fold nothing, and so
could not newly reach ``ert_alpha`` — so partial accumulator folds and
block-granular ERT checks happen at the same points with the same
values;  (3) ``MapStats.n_samples`` counts every *owned* sample of each
live block before any elision (exactly as the table path always has),
so the counters cannot see the skip either — what the trim saved shows
in ``MapStats.n_positioned`` alone, which takes no part in equality.
``accel="off"`` disables table and trim and is the conformance oracle.

On the sparse benchmark scene the march positions 97 k of the 200 k
samples it owns per frame (53 k survive the table either way); the
end-to-end gains are in ARCHITECTURE.md.  Per cast, ``accel`` off →
table (medians, C march, 2-core Xeon VM): one 32³ brick at 128², ``dt``
1, 5 % filled 7.81 → 2.35 ms, 50 % filled 8.17 → 4.34 ms; the sparse
scene's 16 bricks, 8 per launch, 10.3 → 7.67 ms.

Float widths
------------
Ray set-up (directions, slab tests, ownership intervals, first-sample
``t``) is float32, and so is everything from the transfer-function
table coordinate on (lookup, the transmittance scan, the accumulators,
the fragments).  In between, the march is **float64**: a sample's ``t``
is ``t0 + ordinal · dt`` with an int32 ordinal and a float32 *scalar*
``dt``, which NumPy promotes to float64, and positions, clamps, lattice
fractions, the trilinear lerps and the sampled value inherit it until
``table_coord`` casts back.  The C march (``kernels/march.c``) mirrors
exactly these widths, and the golden fixtures pin the arithmetic bit
for bit, so it is a contract, not an accident to tidy away;
``tests/test_fused_launch.py::test_march_float_widths_are_pinned`` names
it.  Opacity correction for ``dt`` is not in the march at all: the
march looks up a table corrected once per entry
(:meth:`~repro.render.transfer.TransferFunction1D.opacity_corrected`),
so no per-sample transcendental makes the result depend on the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .accel import AccelCache, shared_cache
from .camera import Camera, PixelRect
from .fragments import FRAGMENT_DTYPE, PLACEHOLDER_KEY
from .kernels import BrickSegment, MarchPlan, SetupPlan
from .transfer import TransferFunction1D

__all__ = [
    "BrickTask",
    "LAUNCH_RAY_BUDGET",
    "MapStats",
    "RenderConfig",
    "cast_launch",
    "cut_launches",
    "raycast_brick",
    "raycast_bricks",
    "trilinear_sample",
]

_F32 = np.float32


@dataclass(frozen=True)
class RenderConfig:
    """Knobs of the ray-cast kernel.

    ``dt`` is the fixed step in voxel units.  ``ert_alpha`` is the early
    ray-termination threshold applied to the alpha accumulated *within
    the current brick* (a distributed renderer cannot see upstream
    bricks' opacity); set it to 1.0 to disable termination, which makes
    the bricked render exactly equal to the reference.  ``dt`` must be
    finite and positive.  Fragments with no accumulated alpha carry no
    visible contribution and are dropped, exactly the paper's "ray
    fragments with no contributions are discarded";
    ``emit_placeholders`` keeps a placeholder for every footprint ray
    instead (the paper's fixed-output kernel: one pair per ray).

    ``accel`` selects the empty-space machinery — both settings are
    bitwise-identical in output and counters (see the module docstring's
    proof obligation): ``"table"`` (default) probes a per-voxel
    corner-max table before each gather and positions only the part of
    each ray that crosses the box of the table's occupied cells;
    ``"off"`` disables both (the conformance oracle).

    The march itself is not a knob: :attr:`kernel` names the one this
    process runs (see :mod:`repro.render.kernels`).
    """

    dt: float = 0.5
    ert_alpha: float = 0.98
    emit_placeholders: bool = False
    shading: bool = False  # Levoy-style gradient Phong shading
    accel: str = "table"

    def __post_init__(self):
        # A NaN or infinite step would take no sample and render blank.
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and positive")
        if not 0 < self.ert_alpha <= 1.0:
            raise ValueError("ert_alpha must be in (0, 1]")
        if self.accel not in ("table", "off"):
            raise ValueError("accel must be one of 'table', 'off'")

    @property
    def kernel(self) -> str:
        """The march this process runs for this config: ``"c"`` or
        ``"numpy"`` (read-only; both give the same bits)."""
        return "numpy" if self.shading else kernels.resolve()[0]

    @property
    def fetches_per_sample(self) -> int:
        """Texture fetches per sample point (drives the GPU cost model):
        1 for the scalar, plus 6 for the central-difference gradient."""
        return 7 if self.shading else 1


@dataclass
class MapStats:
    """Work counters of one kernel execution (drive the cost models)."""

    n_rays: int = 0  # padded thread count launched
    n_active_rays: int = 0  # rays that hit the brick box
    n_samples: int = 0  # trilinear samples taken
    n_emitted: int = 0  # key-value pairs written (incl. placeholders)
    n_kept: int = 0  # fragments surviving the contribution discard
    # Samples the march computed a position for: the owned samples of
    # every live block that the occupied-box trim could not rule out
    # (without a trim, ``n_samples / fetches_per_sample``).  A cost
    # diagnostic that cannot change any counter above, so it takes no
    # part in equality.
    n_positioned: int = field(default=0, compare=False)
    # Which march ran ("c" / "numpy") and why: provenance, not a result.
    march: str = field(default="", compare=False)
    march_reason: str = field(default="", compare=False)


def _trilinear_prep(
    shape: tuple[int, int, int],
    cx: np.ndarray,
    cy: np.ndarray,
    cz: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(base ravel index, fx, fy, fz) for lattice coords ``c = pos − ½``.

    Clamp-to-edge is folded into the coordinates: clipping ``c`` to
    ``[0, n−1]`` and the base index to ``n−2`` reproduces the classic
    per-corner index clamp (outside samples collapse onto the edge value)
    while keeping the +1 neighbour offsets constant.  The march kernel
    inlines the same steps over a whole launch (and skips the clamp when
    every brick of the launch has a full ghost shell).

    The fractions carry the coordinates' dtype: float32 coordinates give
    float64 fractions (``float32 − int32`` promotes), so the lerps of
    :func:`_trilinear_gather` run in float64 either way.
    """
    nx, ny, nz = shape
    cx = np.clip(cx, _F32(0.0), _F32(nx - 1))
    cy = np.clip(cy, _F32(0.0), _F32(ny - 1))
    cz = np.clip(cz, _F32(0.0), _F32(nz - 1))
    ix = np.minimum(cx.astype(np.int32), max(nx - 2, 0))
    iy = np.minimum(cy.astype(np.int32), max(ny - 2, 0))
    iz = np.minimum(cz.astype(np.int32), max(nz - 2, 0))
    fx = cx - ix
    fy = cy - iy
    fz = cz - iz
    if nx * ny * nz >= 2**31:  # int32 ravel offsets would wrap
        ix = ix.astype(np.int64)
    base = (ix * ny + iy) * nz + iz
    return base, fx, fy, fz


def _gather_strides(shape: tuple[int, int, int]) -> tuple[int, int, int]:
    """+1-neighbour ravel offsets per axis; degenerate (size-1) axes
    collapse the neighbour onto the voxel."""
    nx, ny, nz = shape
    return (ny * nz if nx > 1 else 0, nz if ny > 1 else 0, 1 if nz > 1 else 0)


def _trilinear_gather(
    flat: np.ndarray,
    strides: tuple,
    base: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
) -> np.ndarray:
    """Eight ravel-offset ``np.take`` corner fetches + factored lerps.

    ``strides`` are the (x, y, z) +1-neighbour offsets — scalars for one
    payload, per-sample arrays when ``flat`` is a multi-brick atlas.
    """
    sx, sy, sz = strides

    def z_lerp(b):
        v0 = np.take(flat, b)
        v1 = np.take(flat, b + sz)
        return v0 + fz * (v1 - v0)

    # One x-plane at a time, so at most two corner fetches are alive.
    c00 = z_lerp(base)
    c01 = z_lerp(base + sy)
    c0 = c00 + fy * (c01 - c00)
    base = base + sx
    c10 = z_lerp(base)
    c11 = z_lerp(base + sy)
    c1 = c10 + fy * (c11 - c10)
    return c0 + fx * (c1 - c0)


def _trilinear_flat(
    flat: np.ndarray,
    shape: tuple[int, int, int],
    cx: np.ndarray,
    cy: np.ndarray,
    cz: np.ndarray,
) -> np.ndarray:
    """Trilinear filter on raveled data; ``c*`` are lattice coords (pos−½)."""
    base, fx, fy, fz = _trilinear_prep(shape, cx, cy, cz)
    return _trilinear_gather(flat, _gather_strides(shape), base, fx, fy, fz)


def trilinear_sample(data: np.ndarray, local_pos: np.ndarray) -> np.ndarray:
    """Trilinear interpolation on the voxel-center lattice, clamp addressing.

    ``local_pos`` is ``(M, 3)`` in the data block's local world
    coordinates (voxel ``i`` spans ``[i, i+1)``, its center at ``i+0.5``).
    Matches CUDA 3D-texture filtering with clamp-to-edge.  Positions
    are taken as float32; the lattice fractions and lerps over the flat
    ravel-offset gathers are float64 (see :func:`_trilinear_prep`).
    100 000 positions in a 32³ volume: 10.2 ms (median, 2-core Xeon VM).
    """
    c = np.asarray(local_pos, dtype=_F32) - _F32(0.5)
    flat = np.ascontiguousarray(data).ravel()
    return _trilinear_flat(flat, data.shape, c[:, 0], c[:, 1], c[:, 2])


def _empty_space_table(
    data: np.ndarray, tf: TransferFunction1D, u_thr: float
) -> Optional[np.ndarray]:
    """Flat per-voxel table of "some corner of my cell can be visible".

    Entry ``i`` (data ravel order) is False only when the max over the
    2×2×2 corner block at ``i`` maps below the transfer function's first
    non-zero alpha — every trilinear sample based at ``i`` then has alpha
    exactly 0, so skipping it cannot change the image.
    """
    if u_thr < 0:
        return None
    m = np.maximum(data[:-1], data[1:])
    m = np.maximum(m[:, :-1], m[:, 1:])
    m = np.maximum(m[:, :, :-1], m[:, :, 1:])
    table = np.zeros(data.shape, dtype=bool)
    u = tf.table_coord(m.ravel())
    table[: data.shape[0] - 1, : data.shape[1] - 1, : data.shape[2] - 1] = (
        u > _F32(u_thr)
    ).reshape(m.shape)
    return table.ravel()


def _alpha_zero_threshold(tf: TransferFunction1D) -> float:
    """Largest table coordinate below which interpolated alpha is exactly 0.

    Samples with ``u <= u_thr`` interpolate between all-zero alpha table
    entries; returns −1 when the table has no leading zero run and +inf
    when alpha is identically zero.
    """
    nz = np.nonzero(tf.table[:, 3] > 0)[0]
    if len(nz) == 0:
        return np.inf
    if nz[0] == 0:
        return -1.0
    return float(nz[0] - 1)


@dataclass(frozen=True)
class BrickTask:
    """One ghost-padded brick of a launch.

    Mirrors a :class:`~repro.volume.bricking.Brick`: ``data`` is the
    padded payload starting at voxel ``data_lo``; the half-open core is
    ``[core_lo, core_hi)``.  ``rect`` (optional) is the core's padded
    screen footprint when the caller already has it.

    ``accel_key`` (optional) enables empty-space caching: it must
    uniquely identify ``(data, tf)`` — the renderer uses
    ``(volume token, tf version, brick id, region)``.  The corner-max
    table and its occupied box are cached together under the key, as
    one entry.  Both are pure functions of ``(data, tf)`` and skipping
    with them provably cannot change the image or the stats, so caching
    never affects output.
    """

    data: np.ndarray
    data_lo: tuple[int, int, int]
    core_lo: tuple[int, int, int]
    core_hi: tuple[int, int, int]
    rect: Optional[PixelRect] = None
    accel_key: Optional[tuple] = None


#: Padded rays (footprint pixels) one fused launch may carry; callers cut
#: a chunk list into launches with :func:`cut_launches`.  Fusing amortises
#: a launch's fixed cost over more than one brick's ≈2 000 rays, but a
#: launch's buffers grow with the rays in flight and peak RSS is a
#: benchmark bound (5 %).  Measured on the end-to-end scenes at 128²
#: (numpy kernel, 100-view orbit, sparse / dense) by budget — FPS: 1
#: brick 25.8 / 21.4, 8 192 rays 41.5 / 38.0, 16 384 rays 50.0 / 40.8,
#: 32 768 rays 50.2 / 42.1; peak RSS: 66.2 / 63.7, 67.7 / 64.6, 69.8 /
#: 66.9, 73.4 / 70.7 MiB.  16 384 is where the time curve bottoms out.
LAUNCH_RAY_BUDGET = 16384

def cut_launches(
    ray_counts: Sequence[int], budget: int = LAUNCH_RAY_BUDGET
) -> list[int]:
    """Cut consecutive bricks into launches of at most ``budget`` rays.

    Returns the launch sizes (brick counts, summing to
    ``len(ray_counts)``); a brick larger than the budget launches alone.
    """
    sizes: list[int] = []
    rays = 0
    for n in ray_counts:
        if sizes and rays + n <= budget:
            sizes[-1] += 1
            rays += n
        else:
            sizes.append(1)
            rays = n
    return sizes


def _occupied_box(table: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Axis-aligned box of a corner-max table's ``True`` cells.

    ``(2, 3)`` float32 ``[lo, hi]`` in the payload's lattice coordinates
    (``c = position − ½``, the march's own): a sample whose trilinear
    base is a ``True`` cell has ``lo <= c <= hi`` on every axis.  Base
    ``i`` covers ``c ∈ [i, i+1)``; clamp-to-edge also maps every ``c``
    below the lattice onto base 0 and every ``c`` above it onto base
    ``n−2``, so a face that touches the payload's first / last cell is
    open (``∓inf``).  A table without a ``True`` cell gives the box no
    ray enters (``lo = hi = +inf``).
    """
    inf = _F32(np.inf)
    cells = table.reshape(shape)
    box = np.full((2, 3), inf, dtype=_F32)
    for axis, n in enumerate(shape):
        occupied = np.nonzero(cells.any(axis=tuple(a for a in range(3) if a != axis)))[0]
        if len(occupied) == 0:
            break
        first, last = int(occupied[0]), int(occupied[-1])
        box[0, axis] = -inf if first == 0 else first
        if last < n - 2:
            box[1, axis] = last + 1
    return box


def cast_launch(
    payloads: Sequence[np.ndarray],
    data_lo: Sequence,
    cores: Sequence,
    rects: np.ndarray,
    accel_keys: Sequence[Optional[tuple]],
    volume_shape: tuple[int, int, int],
    camera: Camera,
    tf: TransferFunction1D,
    config: RenderConfig = RenderConfig(),
    accel_cache: Optional[AccelCache] = None,
) -> tuple[np.ndarray, list[int], list[tuple]]:
    """Ray cast one launch of bricks given as arrays (see "Fused
    launches" in the module docstring).

    Brick ``i`` is ``payloads[i]``, ghost-padded from voxel
    ``data_lo[i]``, with core box ``cores[i]`` (``[lo, hi]``), padded
    footprint ``rects[i]`` (``[x0, y0, x1, y1]`` inside the viewport)
    and acceleration-cache key ``accel_keys[i]`` (None: nothing cached;
    see :class:`BrickTask`).  Returns the launch's fragment array, the
    cuts of each brick's slice of it, and each brick's
    :class:`MapStats` fields in order.
    """
    u_thr = _alpha_zero_threshold(tf)
    # A table-less alpha (u_thr < 0) has nothing to skip.
    cache = None
    if config.accel != "off" and u_thr >= 0:
        cache = accel_cache if accel_cache is not None else shared_cache()
    data_lo = np.asarray(data_lo, dtype=np.float64).reshape(-1, 3)
    cores = np.asarray(cores, dtype=_F32).reshape(-1, 2, 3)
    shapes = np.array([data.shape for data in payloads], dtype=np.int64).reshape(-1, 3)

    # -- ray set-up, launch-wide (a kernel: see the kernels package).
    rays = kernels.setup(SetupPlan(
        camera, rects, cores, volume_shape, config.dt, config.shading,
        all([data.dtype == _F32 for data in payloads]),
    ))
    cuts, owned = rays.cuts.tolist(), rays.owned.tolist()
    # Lattice coords c = (position − ½) with the brick origin folded in.
    base_w = (np.asarray(camera.eye, dtype=np.float64) - data_lo - 0.5).astype(_F32)
    # Interior bricks with a full one-voxel ghost shell keep every
    # sample's 2×2×2 support inside the payload — no clamping needed.
    need_clamp = np.logical_or.reduce(
        (data_lo > cores[:, 0] - 1) | (data_lo + shapes < cores[:, 1] + 1), axis=1
    ).tolist()

    # -- per brick: what is its own — one look-up (or first build) of
    # its empty-space structures and a segment over its stretch of the
    # launch's rays (idle bricks have none).
    marching, segments = [], []
    for i, data in enumerate(payloads):
        lo, hi = cuts[i], cuts[i + 1]
        if hi == lo:
            continue
        key, entry = accel_keys[i], None
        if cache is not None and min(data.shape) > 1:
            entry = None if key is None else cache.get(key)
            # The table costs O(voxels): without a cached copy, build it
            # only when the march is big enough to amortize it.
            if entry is None and owned[i] > data.size // 8:
                table = _empty_space_table(data, tf, u_thr)
                entry = (table, _occupied_box(table, data.shape))
                if key is not None:
                    cache.put(key, entry)
        skip_table, box = entry or (None, None)
        marching.append(i)
        segments.append(BrickSegment(
            data, np.ascontiguousarray(data).ravel(), data.shape, need_clamp[i],
            base_w[i], skip_table, box, lo, hi,
        ))

    # -- trim, march and emit, launch-wide (a kernel: the C one, or the
    # NumPy passes it mirrors bit for bit).  A launch of idle bricks
    # never reaches it.
    n_bricks = len(payloads)
    n_rays = (rays.ray_cuts[1:] - rays.ray_cuts[:-1]).tolist()
    samples, positioned, kept = [0] * n_bricks, [0] * n_bricks, [0] * n_bricks
    marches, reasons = [""] * n_bricks, [""] * n_bricks
    if segments:
        n = len(rays.counts)
        fragments, owned_s, positioned_s, kept_s, name, why = kernels.march(MarchPlan(
            tuple(segments), rays.counts, rays.t0, rays.dirs, float(config.dt),
            config.ert_alpha < 1.0, float(config.ert_alpha),
            float(u_thr), lead=None, trail=None, tf=tf.opacity_corrected(config.dt),
            shading=config.shading, acc_rgb=np.zeros((n, 3), dtype=_F32),
            acc_a=np.zeros(n, dtype=_F32), term=np.zeros(n, dtype=bool),
            keys=rays.keys, active=rays.active, n_rays=int(rays.ray_cuts[-1]),
            emit_placeholders=config.emit_placeholders,
        ))
        fetches = config.fetches_per_sample
        for i, own, pos, k in zip(marching, owned_s.tolist(), positioned_s.tolist(), kept_s.tolist()):
            samples[i], positioned[i], kept[i] = own * fetches, pos, k
            marches[i], reasons[i] = name, why
    else:  # every brick idle: a placeholder per footprint ray, or nothing
        n_out = int(rays.ray_cuts[-1]) if config.emit_placeholders else 0
        fragments = np.zeros(n_out, FRAGMENT_DTYPE)
        fragments["pixel"] = PLACEHOLDER_KEY
    # Each brick's fragments are a view of the launch's array: its
    # footprint with placeholders, else its kept rays.
    emitted = n_rays if config.emit_placeholders else kept
    return fragments, list(accumulate(emitted, initial=0)), list(zip(
        n_rays, (rays.cuts[1:] - rays.cuts[:-1]).tolist(), samples, emitted, kept,
        positioned, marches, reasons,
    ))


def raycast_bricks(
    bricks: Sequence[BrickTask],
    volume_shape: tuple[int, int, int],
    camera: Camera,
    tf: TransferFunction1D,
    config: RenderConfig = RenderConfig(),
    accel_cache: Optional[AccelCache] = None,
) -> list[tuple[np.ndarray, MapStats]]:
    """Ray cast ``bricks`` as **one launch**; ``(fragments, stats)`` each.

    ``volume_shape`` defines the global box used for the shared ray
    parametrisation.  Rays are set up, marched and emitted for the whole
    list at once (:func:`cast_launch`) — callers bound a launch's size
    with :func:`cut_launches`.  Results are bitwise those of casting
    every brick on its own, in any grouping; each brick's fragments are
    a view of the launch's array.

    Acceleration structures are looked up in ``accel_cache`` (default:
    the process-wide :func:`~repro.render.accel.shared_cache`) for
    bricks that carry an ``accel_key``.
    """
    cores = np.array([(b.core_lo, b.core_hi) for b in bricks], dtype=np.float64).reshape(-1, 2, 3)
    rects = camera.box_rects(cores[:, 0], cores[:, 1])
    for i, b in enumerate(bricks):
        if b.rect is not None:
            rects[i] = (b.rect.x0, b.rect.y0, b.rect.x1, b.rect.y1)
    fragments, cuts, rows = cast_launch(
        [b.data for b in bricks], [b.data_lo for b in bricks], cores, rects,
        [b.accel_key for b in bricks], volume_shape, camera, tf, config, accel_cache,
    )
    return [(fragments[lo:hi], MapStats(*row)) for lo, hi, row in zip(cuts, cuts[1:], rows)]


def raycast_brick(
    data: np.ndarray,
    data_lo: tuple[int, int, int],
    core_lo: tuple[int, int, int],
    core_hi: tuple[int, int, int],
    volume_shape: tuple[int, int, int],
    camera: Camera,
    tf: TransferFunction1D,
    config: RenderConfig = RenderConfig(),
    rect: Optional[PixelRect] = None,
    accel_key: Optional[tuple] = None,
    accel_cache: Optional[AccelCache] = None,
) -> tuple[np.ndarray, MapStats]:
    """Ray cast one ghost-padded brick: a :func:`raycast_bricks` launch
    of one (see :class:`BrickTask` for the parameters)."""
    task = BrickTask(data, data_lo, core_lo, core_hi, rect, accel_key)
    return raycast_bricks(
        [task], volume_shape, camera, tf, config, accel_cache
    )[0]
