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
A NumPy "launch" costs a few hundred interpreter dispatches however few
rays it carries, and one brick's footprint is only a couple of thousand
rays — anything done brick by brick spends most of its time on dispatch,
not on rays.  :func:`raycast_bricks` therefore does everything it can
for the **whole brick list at once**:

* *set-up* — one key computation and one direction gather over the
  concatenated footprints, one float32 slab test of every ray against
  its *own* brick's box (per-ray box operands) and one against the
  whole-volume box, one ``nonzero``, one ownership-interval and one
  first-sample computation.  The resulting per-ray arrays *are* the
  kernel's launch-shaped plan (:class:`~repro.render.kernels.MarchPlan`):
  all active rays in brick order, each marching against its own brick's
  payload;
* *march* — one kernel invocation over those arrays;
* *emit* — one contribution test, one fragment array (and one
  placeholder scatter); a brick's fragments are a view of it.

What stays per brick is what is genuinely the brick's own: where its
rays lie in the launch arrays (offsets, not copies), the look-up of its
cached empty-space structures and its
:class:`~repro.render.kernels.BrickSegment`.  One kind of brick cannot
share a kernel invocation — a payload with a size-1 axis — and marches
alone from its slice of the launch arrays, between the stretches of
consecutive bricks that do.  Rays never interact, so
any grouping of bricks is bitwise the bricks cast one by one;
:func:`raycast_brick` is a launch of one through the same lines.
Callers bound a launch with :func:`cut_launches` (``LAUNCH_RAY_BUDGET``
footprint rays: block temporaries, and with them peak memory, grow with
the rays in flight).

Blocked marching
----------------
Instead of advancing one global sample index per Python-interpreter
iteration, the marcher processes each live ray's next ``block_size``
owned samples at once and amortizes interpreter dispatch over the whole
block:

* the flat sample list of a block is built directly from the ownership
  intervals (``np.repeat`` over per-ray counts — ownership is a mask by
  construction, not a test);
* one flattened trilinear gather fetches all samples (ravel-offset
  ``np.take`` on ``data.ravel()`` — no 3-D fancy indexing);
* a conservative corner-max empty-space table (built per call when the
  sample count warrants it) drops samples whose transfer-function alpha
  is provably exactly zero *before* the gather — a pure win that cannot
  change the image;
* one batched transfer-function lookup colours the surviving samples;
* front-to-back accumulation along each ray is closed-form: the
  transmittance in front of every sample is a segmented exclusive
  product scan of ``(1 − α)`` scaled by the transmittance carried in
  from earlier blocks, so a block folds into the accumulators with a
  handful of array ops.

Early ray termination runs at **block granularity**: after each block,
rays whose accumulated alpha reached ``ert_alpha`` stop marching.
Within a block all owned samples are processed (and counted in
``MapStats.n_samples``), so a larger ``block_size`` trades per-block
dispatch overhead against samples marched past the termination point.
``block_size=1`` reproduces classic per-step termination exactly; the
default of 8 covers a typical 16³-brick crossing in one or two blocks
while keeping ERT waste low.  Raise it to 32–64 when termination is
disabled (reference renders) or content is mostly transparent; drop
toward 1 for dense, high-opacity transfer functions.

Occupied-box trim
-----------------
The corner-max table still *positions* every owned sample before it can
discard one, and positioning is the march's largest phase.  The paper's
kernel discards what misses the brick's bounding box before a sample is
taken; the trim does the same one level down.  Every brick with a table
also has the **axis-aligned box of the table's ``True`` cells**
(:func:`_occupied_box`, built and cached with the table), the set-up
slab-tests every active ray against its own brick's occupied box — the
per-ray-box call it already makes for the brick boxes — and turns the
hit interval into sample ordinals ``[lead, trail) ⊆ [0, count)``.  Each
block of the march positions only the ordinals of its window that fall
in that interval.  Rays stay in the launch arrays, footprints are not
shrunk, trimmed bricks fuse like any other, and a launch in which no
brick's box has a finite face makes no third slab test.

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
block windows still count ``block_size`` ordinals from the ray's first
*owned* sample, and a ray sits out only the blocks whose window misses
its interval — where it would position nothing, fold nothing, and so
could not newly reach ``ert_alpha`` — so partial accumulator folds and
block-granular ERT checks happen at the same points with the same
values;  (3) ``MapStats.n_samples`` counts every *owned* sample of each
live block before any elision (exactly as the table path always has),
so the counters cannot see the skip either — what the trim saved shows
in ``MapStats.n_positioned`` alone, which takes no part in equality.
``accel="off"`` disables table and trim and is the conformance oracle.

Measured on the 2-core dev box (numpy kernel), parent → trim.  Skull
64³ as 16 bricks at 128², ``dt`` 0.75 (the end-to-end sparse scene):
samples positioned per frame 200 k → 97 k of 200 k owned, 53 k surviving
the table either way; march 11.2 → 9.1–9.5 ms of a 16.0 → 14.3–15.1 ms
in-process frame (positioning 3.9 → 2.2–2.3 ms; instrumented, box in
its fast state); ``orbit-pool-sparse`` 92.6 → 106.5 FPS (4/4
alternating pairs), ``orbit-serial-sparse`` 60.9 → 65.4 FPS (10/10
pairs, on a box whose runs fall ±15 % into a fast and a slow state: the
parent's quartiles are 5.5 FPS apart), ``orbit-pool-dense`` level (no
box there has a finite face).  One 32³ 5 %-fill brick at 128²
(``bench_kernels.py::test_bench_raycast_macro_grid``): table + trim
3.7 ms against 4.8–5.5 ms for the macro-grid span carve this replaced
and 7.5 ms for the table alone (best of ≥ 100 rounds each).

Float widths
------------
Ray set-up (directions, slab tests, ownership intervals, first-sample
``t``) is float32, and so is everything from the transfer-function
table coordinate on (lookup, opacity correction, the transmittance
scan, the accumulators, the fragments).  In between, the march is
**float64**: a sample's ``t`` is ``t0 + ordinal · dt`` with an int32
ordinal and a float32 *scalar* ``dt``, which NumPy promotes to float64,
and positions, clamps, lattice fractions, the trilinear lerps and the
sampled value inherit it until ``table_coord`` casts back.  The golden
fixtures pin this arithmetic bit for bit (and the numba backend mirrors
it), so it is a contract, not an accident to tidy away;
``tests/test_fused_launch.py::test_march_float_widths_are_pinned`` names
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .camera import Camera, PixelRect
from .fragments import FRAGMENT_DTYPE, PLACEHOLDER_KEY, make_fragments
from .geometry import box_intersect_f32
from .transfer import TransferFunction1D

__all__ = [
    "BrickTask",
    "LAUNCH_RAY_BUDGET",
    "MapStats",
    "RenderConfig",
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
    the bricked render exactly equal to the reference.  ``alpha_eps``
    controls fragment discard — fragments with accumulated alpha at or
    below it carry no visible contribution and are dropped, exactly the
    paper's "ray fragments with no contributions are discarded".
    ``block_size`` is the number of consecutive owned samples the
    blocked marcher folds per iteration; termination is checked between
    blocks (see the module docstring for the tradeoff).

    ``accel`` selects the empty-space machinery — both settings are
    bitwise-identical in output and counters (see the module docstring's
    proof obligation): ``"table"`` (default) probes a per-voxel
    corner-max table before each gather and positions only the part of
    each ray that crosses the box of the table's occupied cells;
    ``"off"`` disables both (the conformance oracle).  ``"grid"`` is
    accepted as an old spelling of ``"table"``.

    ``kernel`` selects the march backend behind the kernel contract
    (:mod:`repro.render.kernels`): ``"numpy"`` is the blocked vectorized
    fold (the oracle), ``"numba"`` the compiled per-ray JIT marcher, and
    ``"auto"`` (default) prefers numba when importable, falling back to
    numpy with a single warning.  Fragment keys, depths and all
    ``MapStats`` counters are exact across backends; colors are
    tolerance-banded (see the kernels package docstring).  The macro
    grid / corner-max structures compose with every backend.
    """

    dt: float = 0.5
    ert_alpha: float = 0.98
    alpha_eps: float = 0.0
    pad_to_block: bool = True
    emit_placeholders: bool = False
    shading: bool = False  # Levoy-style gradient Phong shading
    block_size: int = 8
    accel: str = "table"
    kernel: str = "auto"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < self.ert_alpha <= 1.0:
            raise ValueError("ert_alpha must be in (0, 1]")
        if self.alpha_eps < 0:
            raise ValueError("alpha_eps must be non-negative")
        if self.block_size < 1:
            raise ValueError("block_size must be at least 1")
        if self.accel == "grid":
            object.__setattr__(self, "accel", "table")
        if self.accel not in ("table", "off"):
            raise ValueError("accel must be one of 'table', 'off' ('grid' = 'table')")
        if self.kernel not in ("auto", "numpy", "numba"):
            raise ValueError("kernel must be one of 'auto', 'numpy', 'numba'")

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

    def merge(self, other: "MapStats") -> "MapStats":
        return MapStats(
            self.n_rays + other.n_rays,
            self.n_active_rays + other.n_active_rays,
            self.n_samples + other.n_samples,
            self.n_emitted + other.n_emitted,
            self.n_kept + other.n_kept,
            self.n_positioned + other.n_positioned,
        )


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
    """
    c = np.asarray(local_pos, dtype=_F32) - _F32(0.5)
    flat = np.ascontiguousarray(data).ravel()
    return _trilinear_flat(flat, data.shape, c[:, 0], c[:, 1], c[:, 2])


def _sample_intervals(
    tn_brick: np.ndarray,
    tf_brick: np.ndarray,
    tn_volume: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(k_first, count) of the owned global sample indices per ray.

    ``k`` is owned iff ``t_k = tnv + (k+½)·dt`` lies in
    ``[tn_brick, tf_brick)``.  Evaluated with one shared float32 formula
    so adjacent bricks' runs tile each ray exactly (see module docs).
    """
    dt = _F32(dt)
    # int64: a tiny dt over a long ray can exceed int32 sample indices,
    # which would wrap in the cast and silently drop the whole brick.
    kf = np.ceil((tn_brick - tn_volume) / dt - _F32(0.5)).astype(np.int64)
    np.maximum(kf, 0, out=kf)
    kl = np.ceil((tf_brick - tn_volume) / dt - _F32(0.5)).astype(np.int64)
    return kf, np.maximum(kl - kf, 0)


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
    table is cached under the key itself, its occupied box under
    ``("box",) + key``.  Both are pure functions of ``(data, tf)`` and
    skipping with them provably cannot change the image or the stats,
    so caching never affects output.
    """

    data: np.ndarray
    data_lo: tuple[int, int, int]
    core_lo: tuple[int, int, int]
    core_hi: tuple[int, int, int]
    rect: Optional[PixelRect] = None
    accel_key: Optional[tuple] = None


#: Padded rays (footprint pixels) one fused launch may carry; callers cut
#: a chunk list into launches with :func:`cut_launches`.  Fusing exists
#: to amortise the ≈500 interpreter dispatches of a march, and the ≈100
#: of the set-up and emit around it, over more than one brick's ≈2 000
#: rays; but a launch's block temporaries grow with the rays in flight,
#: and peak RSS is a benchmark bound (5 %).  Measured on the end-to-end
#: scenes at 128² (numpy kernel, in-process): the ray-cast stage of
#: skull 64³ as 16 bricks (``bench_kernels.py::test_bench_raycast_fused``)
#: by bricks per launch 1 / 2 / 4 / 8 / 16: 32.0 / 24.9 / 18.7 / 15.7 /
#: 19.4 ms (best of ≥ 20 rounds), and a 100-view orbit, sparse / dense
#: scene, by budget — FPS: 1 brick 25.8 / 21.4, 8 192 rays 41.5 / 38.0,
#: 16 384 rays 50.0 / 40.8, 32 768 rays 50.2 / 42.1; peak RSS: 66.2 /
#: 63.7, 67.7 / 64.6, 69.8 / 66.9, 73.4 / 70.7 MiB.  16 384 — 8 of those
#: bricks — is where the time curve bottoms out; doubling it buys ≤ 3 %
#: for +5 % RSS.
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


def _brick_structures(
    brick: BrickTask,
    n_samples: int,
    tf: TransferFunction1D,
    config: RenderConfig,
    u_thr: float,
    cache: Optional["AccelCache"],
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """(corner-max table, its occupied box) of one brick that is about
    to march ``n_samples`` samples — cached copies when the brick
    carries an ``accel_key``, both None when there is no table."""
    data = brick.data
    # u_thr < 0 means the alpha table has no leading zero run: there is
    # nothing to skip and _empty_space_table would return None.
    if config.accel == "off" or u_thr < 0 or min(data.shape) < 2:
        return None, None
    if brick.accel_key is None:
        cache = None
    skip_table = box = None
    if cache is not None:
        box_key = ("box",) + tuple(brick.accel_key)
        skip_table = cache.get(brick.accel_key)
    if skip_table is not None:
        box = cache.get(box_key)
    elif n_samples > data.size // 8:
        # The table costs O(voxels): without a cached copy, build it
        # only when the march is big enough to amortize it.
        skip_table = _empty_space_table(data, tf, u_thr)
        if cache is not None:
            cache.put(brick.accel_key, skip_table)
    else:
        return None, None
    if box is None:
        box = _occupied_box(skip_table, data.shape)
        if cache is not None:
            cache.put(box_key, box)
    return skip_table, box


def raycast_bricks(
    bricks: Sequence[BrickTask],
    volume_shape: tuple[int, int, int],
    camera: Camera,
    tf: TransferFunction1D,
    config: RenderConfig = RenderConfig(),
    accel_cache: Optional["AccelCache"] = None,
) -> list[tuple[np.ndarray, MapStats]]:
    """Ray cast ``bricks`` as **one launch**; ``(fragments, stats)`` each.

    ``volume_shape`` defines the global box used for the shared ray
    parametrisation.  Rays are set up, marched and emitted for the whole
    list at once (see "Fused launches" in the module docstring), so the
    per-launch interpreter cost is paid once — callers bound a launch's
    size by cutting their brick list with :func:`cut_launches`.  A
    payload with a size-1 axis marches on its own, from its slice of the
    launch's rays.  Results are bitwise those of casting
    every brick on its own, in any grouping; each brick's fragments are
    a view of the launch's fragment array.

    Acceleration structures are looked up in ``accel_cache`` (default:
    the process-wide :func:`~repro.render.accel.shared_cache`) for
    bricks that carry an ``accel_key``.
    """
    # Imported lazily: kernels imports this module's helpers at load time.
    from .kernels import BrickSegment, MarchPlan, resolve_kernel

    kspec = resolve_kernel(config.kernel)
    u_thr = _alpha_zero_threshold(tf)
    cache = None
    if config.accel != "off":
        from .accel import shared_cache

        cache = accel_cache if accel_cache is not None else shared_cache()
    rects = [b.rect for b in bricks]
    missing = [i for i, r in enumerate(rects) if r is None]
    if missing:
        projected = camera.box_rects(
            [bricks[i].core_lo for i in missing],
            [bricks[i].core_hi for i in missing],
            config.pad_to_block,
        )
        for i, rect in zip(missing, projected):
            rects[i] = rect

    # -- ray set-up, launch-wide: every brick's footprint rays, each
    # tested against its own brick's box and the whole-volume box (whose
    # entry anchors the global sample lattice).
    dirs, keys, ray_cuts = camera.footprint_rays_f32(rects)
    areas = np.diff(ray_cuts)
    eye = np.asarray(camera.eye, dtype=np.float64)
    eye32 = eye.astype(_F32)
    with np.errstate(divide="ignore", over="ignore"):
        inv = _F32(1.0) / dirs
    core_lo = np.array([b.core_lo for b in bricks], dtype=_F32).reshape(-1, 3)
    core_hi = np.array([b.core_hi for b in bricks], dtype=_F32).reshape(-1, 3)
    tn_b, tf_b, hit_b = box_intersect_f32(
        np.repeat(core_lo - eye32, areas, axis=0),
        np.repeat(core_hi - eye32, areas, axis=0),
        dirs,
        inv,
    )
    tn_v, _, hit_v = box_intersect_f32(
        _F32(0.0) - eye32, np.asarray(volume_shape, dtype=_F32) - eye32, dirs, inv
    )
    active = np.nonzero(hit_b & hit_v & (tf_b > tn_b))[0]
    tn_v = tn_v[active]
    dt = _F32(config.dt)
    kf, counts = _sample_intervals(tn_b[active], tf_b[active], tn_v, dt)
    dirs = dirs[active]
    # t of each ray's first owned sample; later samples add whole steps.
    t0 = tn_v + (kf.astype(_F32) + _F32(0.5)) * dt
    n = len(active)
    acc_rgb = np.zeros((n, 3), dtype=_F32)
    acc_a = np.zeros(n, dtype=_F32)
    term = np.zeros(n, dtype=bool)

    # -- per brick: where its rays sit in the launch arrays, then what
    # is its own — structure lookups and a segment.
    cuts = np.searchsorted(active, ray_cuts).tolist()
    owned_cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=owned_cum[1:])
    expected = np.diff(owned_cum[cuts]).tolist()
    # Lattice coords c = (position − ½) with the brick origin folded in.
    base_w = (
        eye - np.array([b.data_lo for b in bricks], dtype=np.float64).reshape(-1, 3) - 0.5
    ).astype(_F32)
    stats = [
        MapStats(n_rays=a, n_active_rays=hi - lo)
        for a, lo, hi in zip(areas.tolist(), cuts, cuts[1:])
    ]
    # Occupied boxes, open on every face until a brick's table says
    # otherwise.
    boxes = np.empty((len(bricks), 2, 3), dtype=_F32)
    boxes[:, 0] = -np.inf
    boxes[:, 1] = np.inf
    # Consecutive bricks march together, as one stretch of the launch
    # arrays — ``(first ray, [(brick index, segment), ...])``; a payload
    # with a size-1 axis is a stretch of its own (any grouping is
    # bitwise the same).
    stretches: list = []
    last_alone = False
    for i, brick in enumerate(bricks):
        lo, hi = cuts[i], cuts[i + 1]
        if hi == lo:
            continue
        data = brick.data
        shape = data.shape
        skip_table, box = _brick_structures(
            brick, expected[i], tf, config, u_thr, cache
        )
        if box is not None:
            boxes[i] = box
        alone = min(shape) < 2
        if alone or last_alone or not stretches:
            stretches.append((lo, []))
        last_alone = alone
        first, members = stretches[-1]
        members.append(
            (
                i,
                BrickSegment(
                    data=data,
                    flat=np.ascontiguousarray(data).ravel(),
                    shape=shape,
                    # Interior bricks with a full one-voxel ghost shell
                    # keep every sample's 2×2×2 support inside the
                    # payload — no clamping needed.
                    need_clamp=any(
                        dl > cl - 1 or dl + size < ch + 1
                        for dl, size, cl, ch in zip(
                            brick.data_lo, shape, brick.core_lo, brick.core_hi
                        )
                    ),
                    base_w=base_w[i],
                    skip_table=skip_table,
                    ray_lo=lo - first,
                    ray_hi=hi - first,
                ),
            )
        )

    # -- occupied-box trim, launch-wide: one more slab test of every ray,
    # against the box of its own brick's table, gives the ordinals
    # [lead, trail) outside which the table drops every sample — with
    # one sample of slack per side, far more than the float32 slab
    # test can be off by (≈ 2e-7·t).  A ray that misses its box gets
    # trail <= lead by the same arithmetic; a NaN keeps the ray whole.
    lead = trail = None
    if (boxes[:, 0] > -np.inf).any() or (boxes[:, 1] < np.inf).any():
        rays_of = np.diff(cuts)
        rel = boxes - base_w[:, None, :]
        tn_o, tf_o, _ = box_intersect_f32(
            np.repeat(rel[:, 0], rays_of, axis=0),
            np.repeat(rel[:, 1], rays_of, axis=0),
            dirs,
            inv[active],
        )
        owned_f = counts.astype(_F32)
        lead = np.fmin(
            np.fmax(np.ceil((tn_o - t0) / dt) - _F32(1.0), _F32(0.0)), owned_f
        ).astype(np.int64)
        trail = np.fmax(
            np.fmin(np.floor((tf_o - t0) / dt) + _F32(2.0), owned_f), _F32(0.0)
        ).astype(np.int64)

    # -- march, one kernel invocation per stretch.  It runs behind the
    # kernel contract: the numpy backend is the blocked fold over the
    # whole stretch, the numba backend a compiled per-ray marcher run
    # per segment (exact keys/depths/counters, tolerance-banded colors —
    # see the kernels package docstring).
    fetches = config.fetches_per_sample
    for lo, members in stretches:
        hi = lo + members[-1][1].ray_hi
        plan = MarchPlan(
            segments=tuple(seg for _, seg in members),
            counts=counts[lo:hi],
            t0=t0[lo:hi],
            dirs=dirs[lo:hi],
            dt=float(config.dt),
            block_size=config.block_size,
            use_ert=config.ert_alpha < 1.0,
            ert_alpha=float(config.ert_alpha),
            u_thr=float(u_thr),
            lead=None if lead is None else lead[lo:hi],
            trail=None if trail is None else trail[lo:hi],
            tf=tf,
            shading=config.shading,
            acc_rgb=acc_rgb[lo:hi],
            acc_a=acc_a[lo:hi],
            term=term[lo:hi],
        )
        for (i, _), own, pos in zip(members, *kspec.march(plan)):
            stats[i].n_samples = int(own) * fetches
            stats[i].n_positioned = int(pos)

    # -- emit, launch-wide: one fragment per contributing ray (or per
    # ray, with placeholders); each brick gets its stretch as a view.
    kept = np.nonzero((counts > 0) & (acc_a > config.alpha_eps))[0]
    rays = active[kept]
    fragments = make_fragments(
        keys[rays],
        t0[kept],
        np.concatenate([acc_rgb[kept], acc_a[kept, None]], axis=1),
    )
    frag_cuts = np.searchsorted(kept, cuts).tolist()
    if config.emit_placeholders:
        # Every "thread" emits: useless rays write a later-discarded
        # placeholder with zeroed depth and colour.
        emitted = np.zeros(len(keys), dtype=FRAGMENT_DTYPE)
        emitted["pixel"] = PLACEHOLDER_KEY
        emitted[rays] = fragments
        fragments, out_cuts = emitted, ray_cuts.tolist()
    else:
        out_cuts = frag_cuts
    for i, st in enumerate(stats):
        st.n_kept = frag_cuts[i + 1] - frag_cuts[i]
        st.n_emitted = out_cuts[i + 1] - out_cuts[i]
    return [
        (fragments[lo:hi], st)
        for lo, hi, st in zip(out_cuts, out_cuts[1:], stats)
    ]


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
    accel_cache: Optional["AccelCache"] = None,
) -> tuple[np.ndarray, MapStats]:
    """Ray cast one ghost-padded brick: a :func:`raycast_bricks` launch
    of one (see :class:`BrickTask` for the parameters)."""
    task = BrickTask(data, data_lo, core_lo, core_hi, rect, accel_key)
    return raycast_bricks(
        [task], volume_shape, camera, tf, config, accel_cache
    )[0]
