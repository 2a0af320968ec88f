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
cached empty-space structures, the span gate, and its
:class:`~repro.render.kernels.BrickSegment`.  Two kinds of brick cannot
share a kernel invocation — span-carved ones and payloads with a size-1
axis — and march alone from their slice of the launch arrays, between
the stretches of consecutive bricks that do.  Rays never interact, so
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

Macro-cell empty-space grid (``accel="grid"``)
----------------------------------------------
The corner-max table still *positions* every owned sample before it can
discard one.  The macro grid goes coarser: the brick is partitioned into
``macro_cell_size``³ cells carrying min/max scalar ranges, cells whose
entire padded range provably maps into the transfer function's leading
zero-alpha run are classified empty
(:func:`repro.render.accel.build_macro_grid`), and each ray DDA-walks
the cell grid once (:func:`_macro_grid_spans`) to carve its owned sample
interval down to occupied spans **before the blocked march** — skipped
spans never compute positions, never probe the corner-max table, never
gather.  The walk itself costs time per ray and cell step, so it runs
only where the samples it can remove pay for it (the *span gate*,
``SPAN_GATE_STEPS`` / ``SPAN_GATE_SAMPLES`` — large, mostly empty
bricks); elsewhere ``"grid"`` marches exactly like ``"table"``.  The
gate is a cost model and cannot be seen in the output, because of the
carve's own contract.

Conservative-skip proof obligation: the grid path must be **bitwise
identical** to ``accel="off"``, counters included.  Three facts carry
it:  (1) a cell is marked empty only when every sample it can produce —
under the march's own arithmetic, clamping included — satisfies
the kernel's exact per-sample filter ``u <= u_thr`` (see
``build_macro_grid`` for the two safety margins), so carving removes
only samples every other path also removes before the transmittance
scan, leaving the scan's operand list — and hence float association —
unchanged;  (2) the block structure is preserved: spans are intersected
with the same ``block_size`` windows, so partial accumulator folds and
block-granular ERT checks happen at the same points with the same
values;  (3) ``MapStats.n_samples`` counts every *owned* sample of each
live block before any elision (exactly as the table path always has),
so the counters cannot see the skip either.  ``accel="table"`` keeps
the PR-1 behaviour; ``accel="off"`` disables both structures and is the
conformance oracle.

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

    ``accel`` selects the empty-space machinery — all three settings are
    bitwise-identical in output and counters (see the module docstring's
    proof obligation): ``"grid"`` (default) *may* DDA-walk a
    ``macro_cell_size``³ macro-cell min/max grid per ray to carve whole
    transparent spans before the march — it does where the span gate
    finds the walk pays for itself (large, mostly empty bricks; see
    ``SPAN_GATE_STEPS``) — and keeps the corner-max table for the
    surviving samples; ``"table"`` is the per-sample corner-max probe
    alone; ``"off"`` disables both (the conformance oracle).

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
    accel: str = "grid"
    macro_cell_size: int = 8
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
        if self.accel not in ("grid", "table", "off"):
            raise ValueError("accel must be one of 'grid', 'table', 'off'")
        if self.macro_cell_size < 1:
            raise ValueError("macro_cell_size must be at least 1")
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
    # Whether the span gate carved this brick's rays on the macro grid —
    # a cost-model decision that cannot change any counter above, so it
    # takes no part in equality.
    span_carved: bool = field(default=False, compare=False)

    def merge(self, other: "MapStats") -> "MapStats":
        return MapStats(
            self.n_rays + other.n_rays,
            self.n_active_rays + other.n_active_rays,
            self.n_samples + other.n_samples,
            self.n_emitted + other.n_emitted,
            self.n_kept + other.n_kept,
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


#: Slack (in samples) the span carve leaves on both sides of every
#: occupied cell interval.  It only has to cover float64 roundoff in the
#: t → sample-ordinal conversion (orders of magnitude below half a
#: sample); positional float32-vs-float64 divergence is absorbed by the
#: classifier's one-voxel support padding instead.  Erring large merely
#: keeps a boundary sample that the exact per-sample filter re-tests
#: anyway.
_SPAN_SLACK = 0.5

_EMPTY_I32 = np.zeros(0, dtype=np.int32)


def _span_walk_steps(grid_shape: tuple) -> int:
    """Step budget of the DDA walk: a straight ray crosses at most
    gx+gy+gz+2 cells; clamped edge riders may burn a few phantom steps."""
    return int(sum(grid_shape)) + 4


def _macro_grid_spans(
    occ: np.ndarray,
    cell_size: int,
    base_w: np.ndarray,
    dirs: np.ndarray,
    t0: np.ndarray,
    counts: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupied sample spans per ray from one DDA walk of the macro grid.

    ``occ`` is the boolean macro-cell occupancy
    (:func:`~repro.render.accel.build_macro_grid`); ``base_w`` the
    lattice-origin offset ``eye − data_lo − ½`` the march itself uses;
    ``t0``/``counts`` the rays' first-owned-sample t and owned counts.

    Returns a CSR triple ``(row_ptr, j0, j1)``: ray ``i``'s occupied
    spans are the half-open global sample ordinals ``[j0[k], j1[k])``
    for ``k in [row_ptr[i], row_ptr[i+1])``, sorted and non-overlapping.
    Samples outside every span are *provably* dropped by the kernel's
    exact empty-space filter (the classifier's obligation); everything
    questionable — cell-boundary samples, rays that pin against the
    clamped grid edge, walks that exhaust their step budget — errs
    toward keeping.

    Two traversal strategies produce the same conservative span set (the
    kernel's exact filter makes any conservative superset bitwise
    equivalent, so the choice is purely a cost model):

    * **sparse grids** (occupied cells ≲ cells a ray can cross): one
      vectorized slab test of *all* rays against each occupied cell's
      box — O(occupied cells · rays);
    * otherwise a vectorized Amanatides–Woo DDA over the cell-index
      space — O(cells-crossed · rays), independent of occupancy.

    Both run in float64 over the *clamped* trilinear base coordinate
    (grid-edge cells extend to infinity on their outer faces), so a
    sample that clamps onto the payload edge is attributed to the edge
    cell — the same cell whose padded min/max covers the clamped
    support.  Cost never depends on ``dt``.
    """
    n = len(t0)
    gx, gy, gz = occ.shape
    occ_flat = np.ascontiguousarray(occ).ravel()
    cs = float(cell_size)
    dtf = float(dt)
    bw = np.asarray(base_w, dtype=np.float64)
    t_in = t0.astype(np.float64)
    cnt = counts.astype(np.int64)
    t_end = t_in + (cnt - 1) * dtf  # t of each ray's last owned sample

    rows_parts: list = []
    j0_parts: list = []
    j1_parts: list = []

    def emit(rows_idx, t_lo, t_hi, j_hi_cap):
        j0 = np.ceil((t_lo - t_in[rows_idx]) / dtf - _SPAN_SLACK).astype(np.int64)
        j1 = np.floor((t_hi - t_in[rows_idx]) / dtf + _SPAN_SLACK).astype(np.int64) + 1
        np.clip(j0, 0, None, out=j0)
        np.minimum(j1, j_hi_cap, out=j1)
        ok = j1 > j0
        if ok.any():
            rows_parts.append(rows_idx[ok])
            j0_parts.append(j0[ok])
            j1_parts.append(j1[ok])

    occ_cells = np.nonzero(occ_flat)[0]
    max_steps = _span_walk_steps(occ.shape)
    gdims = (gx, gy, gz)
    if len(occ_cells) <= max_steps:
        # Sparse path: slab-test every ray against each occupied cell's
        # box once.  Grid-edge cells extend to infinity on their outer
        # faces so clamped positions attribute to them.
        d64 = [dirs[:, a].astype(np.float64) for a in range(3)]
        with np.errstate(divide="ignore"):
            inv = [
                np.where(d64[a] != 0.0, 1.0 / d64[a], np.inf) for a in range(3)
            ]
        zero = [d64[a] == 0.0 for a in range(3)]
        any_zero = [bool(zero[a].any()) for a in range(3)]
        for fc in occ_cells.tolist():
            ci = (fc // (gy * gz), (fc // gz) % gy, fc % gz)
            t_enter, t_exit = t_in, t_end
            for a in range(3):
                lo = -np.inf if ci[a] == 0 else ci[a] * cs
                hi = np.inf if ci[a] == gdims[a] - 1 else (ci[a] + 1) * cs
                # invalid="ignore": a zero-direction lane whose constant
                # coordinate sits exactly on a cell face computes 0·inf
                # here; the zero-lane branch below overwrites those NaNs.
                with np.errstate(invalid="ignore"):
                    t1 = (lo - bw[a]) * inv[a]
                    t2 = (hi - bw[a]) * inv[a]
                tl = np.minimum(t1, t2)
                th = np.maximum(t1, t2)
                if any_zero[a]:
                    # Constant-coordinate rays: in the slab forever or
                    # never (also overwrites any 0·inf NaN above).
                    inside = (bw[a] >= lo) & (bw[a] < hi)
                    tl = np.where(zero[a], -np.inf if inside else np.inf, tl)
                    th = np.where(zero[a], np.inf if inside else -np.inf, th)
                t_enter = np.maximum(t_enter, tl)
                t_exit = np.minimum(t_exit, th)
            er = np.nonzero(t_exit >= t_enter)[0]
            if len(er):
                emit(er, t_enter[er], t_exit[er], cnt[er])
    else:
        # Per-axis contiguous DDA state (a (n, 3) layout would make
        # every walk op strided and every update a fancy-index scatter).
        cell = [None, None, None]
        tmax = [None, None, None]
        tdelta = [None, None, None]
        stepv = [None, None, None]
        for a, nca in ((0, gx), (1, gy), (2, gz)):
            da = dirs[:, a].astype(np.float64)
            pa = bw[a] + t_in * da
            ca = np.floor(pa / cs).astype(np.int64)
            np.clip(ca, 0, nca - 1, out=ca)
            sa = np.sign(da).astype(np.int64)
            with np.errstate(divide="ignore", invalid="ignore"):
                inva = np.where(da != 0.0, 1.0 / da, np.inf)
                tma = np.where(
                    da != 0.0, ((ca + (sa > 0)) * cs - bw[a]) * inva, np.inf
                )
            tda = np.where(da != 0.0, cs * np.abs(inva), np.inf)
            # Init cells clamped from outside the grid can yield a
            # boundary crossing *behind* the first sample; advance such
            # a crossing by whole cell strides so the walk's cell always
            # tracks the clamped base cell of the current position.
            lag = np.nonzero(tma < t_in)[0]
            if len(lag):
                tma[lag] += np.ceil((t_in[lag] - tma[lag]) / tda[lag]) * tda[lag]
            cell[a], tmax[a], tdelta[a], stepv[a] = ca, tma, tda, sa
        cx, cy, cz = cell
        tmx, tmy, tmz = tmax
        tdx, tdy, tdz = tdelta
        sx, sy, sz = stepv

        alive = cnt > 0
        t_cur = t_in.copy()
        # A straight ray crosses at most gx+gy+gz+2 cells; clamped edge
        # riders may burn a few phantom steps, covered by the fallback.
        for _ in range(max_steps):
            if not alive.any():
                break
            tm = np.minimum(np.minimum(tmx, tmy), tmz)
            flat_cell = (cx * gy + cy) * gz + cz
            hit = alive & np.take(occ_flat, flat_cell)
            if hit.any():
                er = np.nonzero(hit)[0]
                emit(er, t_cur[er], np.minimum(tm[er], t_end[er]), cnt[er])
            alive &= tm < t_end
            if not alive.any():
                break
            # Step the min-tmax axis (ties prefer x then y — argmin order).
            mx = alive & (tmx <= tmy) & (tmx <= tmz)
            my = alive & ~mx & (tmy <= tmz)
            mz = alive & ~mx & ~my
            cx = np.clip(np.where(mx, cx + sx, cx), 0, gx - 1)
            cy = np.clip(np.where(my, cy + sy, cy), 0, gy - 1)
            cz = np.clip(np.where(mz, cz + sz, cz), 0, gz - 1)
            t_cur = np.where(alive, tm, t_cur)
            tmx = np.where(mx, tmx + tdx, tmx)
            tmy = np.where(my, tmy + tdy, tmy)
            tmz = np.where(mz, tmz + tdz, tmz)
        else:
            rem = np.nonzero(alive)[0]  # budget exhausted: keep the rest
            if len(rem):
                emit(rem, t_cur[rem], t_end[rem], cnt[rem])

    if not rows_parts:
        return np.zeros(n + 1, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)
    row = np.concatenate(rows_parts)
    j0 = np.concatenate(j0_parts)
    j1 = np.concatenate(j1_parts)
    # Merge overlapping/adjacent spans per ray (slack-expanded neighbours
    # overlap; a sample must enter the flat march list exactly once).
    # The slab path emits cells in grid order, not per-ray t order, so
    # sort by (ray, start) rather than trusting emission order.
    order = np.lexsort((j0, row))
    row, j0, j1 = row[order], j0[order], j1[order]
    big = int(cnt.max()) + 2
    a0 = j0 + row * big
    running_hi = np.maximum.accumulate(j1 + row * big)
    first = np.empty(len(row), dtype=bool)
    first[0] = True
    np.greater(a0[1:], running_hi[:-1], out=first[1:])
    starts = np.nonzero(first)[0]
    seg_last = np.r_[starts[1:], len(row)] - 1
    m_row = row[starts]
    m_j0 = j0[starts]
    m_j1 = running_hi[seg_last] - m_row * big
    row_ptr = np.searchsorted(m_row, np.arange(n + 1, dtype=np.int64))
    return row_ptr, m_j0, m_j1


def _block_spans_flat(
    spans: tuple[np.ndarray, np.ndarray, np.ndarray],
    li: np.ndarray,
    cnt: np.ndarray,
    jb: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One block's flat (row, global ordinal) sample list, grid-carved.

    Intersects the alive rays' occupied spans with the block window
    ``[jb, jb + cnt_row)``.  Rows ascend and ordinals ascend within each
    row — the same ordering the uncarved construction produces — so all
    downstream segment handling (scan boundaries, reduceat starts) is
    oblivious to the carve.
    """
    row_ptr, sj0, sj1 = spans
    s0 = row_ptr[li]
    lens = row_ptr[li + 1] - s0
    nsp = int(lens.sum())
    if nsp == 0:
        return _EMPTY_I32, _EMPTY_I32
    L = len(li)
    srow = np.repeat(np.arange(L, dtype=np.int32), lens)
    off = np.zeros(L, dtype=np.int64)
    np.cumsum(lens[:-1], dtype=np.int64, out=off[1:])
    sidx = (np.arange(nsp, dtype=np.int64) - np.take(off, srow)) + np.take(s0, srow)
    b0 = np.maximum(np.take(sj0, sidx), jb)
    b1 = np.minimum(np.take(sj1, sidx), jb + np.take(cnt, srow))
    ln = b1 - b0
    keep = ln > 0
    if not keep.all():
        srow = srow[keep]
        b0 = b0[keep]
        ln = ln[keep]
    m = int(ln.sum())
    if m == 0:
        return _EMPTY_I32, _EMPTY_I32
    ns = len(ln)
    rows = np.repeat(srow, ln)
    off2 = np.zeros(ns, dtype=np.int64)
    np.cumsum(ln[:-1], dtype=np.int64, out=off2[1:])
    span_of = np.repeat(np.arange(ns, dtype=np.int64), ln)
    j_flat = (
        np.arange(m, dtype=np.int64) - np.take(off2, span_of) + np.take(b0, span_of)
    ).astype(np.int32)
    return rows, j_flat


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
    table is cached under the key itself; the macro-cell occupancy grid
    under :func:`~repro.render.accel.grid_key` (bricks where no grid can
    help cache the ``NO_GRID`` sentinel instead, so the negative result
    is not recomputed every frame).  Both structures are pure functions
    of ``(data, tf)`` and skipping with them provably cannot change the
    image or the stats, so caching never affects output.
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

#: Span gate.  Carving pays ≈22 ns per sample it removes (the
#: positioning and table probe the march skips) and costs the grid walk
#: — ≈25 ns per ray per cell step of :func:`_macro_grid_spans` — plus a
#: fixed ≈1 ms (span merge, the costlier carved block lists, and the
#: carved brick leaving its fused launch).  So spans are carved only
#: when the removable samples (owned samples × empty-cell fraction —
#: within 2 % of what the walk then removes, on every scene below)
#: reach ``SPAN_GATE_STEPS`` per ray·step **and** ``SPAN_GATE_SAMPLES``
#: in all.  Measured per brick, numpy kernel, span carve forced on vs
#: off (``benchmarks/bench_kernels.py::test_bench_macro_grid_bricks``
#: and the micro-bench rows; removable ÷ ray·steps → on / off ms):
#: skull 64³ as 16 bricks at 128² 0.2–0.9 → 2.1–3.4 / 1.4–2.2;
#: skull 128³ as 16 bricks at 256² 0.6–1.6 → 5.7–13.3 / 5.0–10.4;
#: skull 128³ as 2 bricks at 512² 0.9–1.1 → 156 / 138–151;
#: 32³ 5 %-fill brick, 4³ grid 2.3 → 6.5 / 9.3 (8³ grid 0.7 → 11.9 / 9.7).
SPAN_GATE_STEPS = 2.0
SPAN_GATE_SAMPLES = 65536


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


def _brick_structures(
    brick: BrickTask,
    n_samples: int,
    tf: TransferFunction1D,
    config: RenderConfig,
    u_thr: float,
    cache: Optional["AccelCache"],
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """(corner-max table, macro-cell occupancy grid) of one brick that
    is about to march ``n_samples`` samples — cached copies when the
    brick carries an ``accel_key``, either one None when absent."""
    data = brick.data
    # The empty-space structures cost O(voxels); build them only when the
    # march is big enough to amortize it — unless a cached copy is free.
    build_worthwhile = n_samples > data.size // 8
    accel_key = brick.accel_key
    if accel_key is None:
        cache = None
    skip_table = None
    # u_thr < 0 means the alpha table has no leading zero run: there is
    # nothing to skip and _empty_space_table would return None.
    if (
        config.accel != "off"
        and np.isfinite(u_thr)
        and u_thr >= 0
        and min(data.shape) >= 2
    ):
        if cache is not None:
            skip_table = cache.get(accel_key)
        if skip_table is None and build_worthwhile:
            skip_table = _empty_space_table(data, tf, u_thr)
            if cache is not None and skip_table is not None:
                cache.put(accel_key, skip_table)
    # Macro-cell occupancy grid: carves whole transparent spans off each
    # ray's owned interval before the march (bitwise-invisible; see the
    # module docstring's proof obligation).
    grid_occ = None
    if config.accel == "grid" and min(data.shape) >= 2:
        from .accel import build_macro_grid, grid_key, is_no_grid

        gkey = (
            grid_key(accel_key, config.macro_cell_size)
            if accel_key is not None
            else None
        )
        if cache is not None:
            grid_occ = cache.get(gkey)
        if grid_occ is None and build_worthwhile:
            grid_occ = build_macro_grid(data, tf, config.macro_cell_size)
            if cache is not None:
                cache.put(gkey, grid_occ)
        if grid_occ is not None and is_no_grid(grid_occ):
            grid_occ = None  # cached negative: no grid can help here
    return skip_table, grid_occ


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
    size by cutting their brick list with :func:`cut_launches`.  Two
    kinds of brick march on their own, from their slice of the launch's
    rays: span-carved ones (large by the span gate, so there is nothing
    left to amortise, and their carved sample lists differ in kind) and
    payloads with a size-1 axis.  Results are bitwise those of casting
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
    # is its own — structure lookups, the span gate, a segment.
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
    fetches = config.fetches_per_sample

    def march(lo: int, segments: list, spans=None) -> None:
        """March the rays of ``segments`` — ``(brick index, segment)``
        pairs tiling the launch's rays from ``lo`` on — as one kernel
        invocation and charge every brick its owned samples."""
        hi = lo + segments[-1][1].ray_hi
        # The march itself runs behind the kernel contract: the numpy
        # backend is the blocked fold over the whole launch, the numba
        # backend a compiled per-ray marcher run per segment (exact
        # keys/depths/counters, tolerance-banded colors — see the
        # kernels package docstring).
        plan = MarchPlan(
            segments=tuple(seg for _, seg in segments),
            counts=counts[lo:hi],
            t0=t0[lo:hi],
            dirs=dirs[lo:hi],
            dt=float(config.dt),
            block_size=config.block_size,
            use_ert=config.ert_alpha < 1.0,
            ert_alpha=float(config.ert_alpha),
            u_thr=float(u_thr),
            spans=spans,
            tf=tf,
            shading=config.shading,
            acc_rgb=acc_rgb[lo:hi],
            acc_a=acc_a[lo:hi],
            term=term[lo:hi],
        )
        for (i, _), own in zip(segments, kspec.march(plan)):
            stats[i].n_samples = int(own) * fetches

    # Consecutive bricks march together, as one stretch of the launch
    # arrays; a brick that must march alone ends the stretch before it
    # (any grouping is bitwise the same).
    fused: list = []
    fused_lo = 0
    for i, brick in enumerate(bricks):
        lo, hi = cuts[i], cuts[i + 1]
        if hi == lo:
            continue
        data = brick.data
        shape = data.shape
        skip_table, grid_occ = _brick_structures(
            brick, expected[i], tf, config, u_thr, cache
        )
        spans = None
        # The span gate: "grid" means the grid *may* be used.  Carving is
        # a pure cost model (identical output either way), so walk the
        # grid only when what it can remove outweighs the walk.
        if grid_occ is not None:
            n_occ = np.count_nonzero(grid_occ)
            removable = expected[i] * (1.0 - n_occ / grid_occ.size)
            steps = (hi - lo) * min(n_occ, _span_walk_steps(grid_occ.shape))
            if removable >= max(SPAN_GATE_SAMPLES, SPAN_GATE_STEPS * steps):
                spans = _macro_grid_spans(
                    grid_occ, config.macro_cell_size, base_w[i], dirs[lo:hi],
                    t0[lo:hi], counts[lo:hi], config.dt,
                )
                stats[i].span_carved = True
        alone = spans is not None or min(shape) < 2
        if alone and fused:
            march(fused_lo, fused)
            fused = []
        if alone or not fused:
            fused_lo = lo
        segment = BrickSegment(
            data=data,
            flat=np.ascontiguousarray(data).ravel(),
            shape=shape,
            # Interior bricks with a full one-voxel ghost shell keep
            # every sample's 2×2×2 support inside the payload — no
            # clamping needed.
            need_clamp=any(
                dl > cl - 1 or dl + size < ch + 1
                for dl, size, cl, ch in zip(
                    brick.data_lo, shape, brick.core_lo, brick.core_hi
                )
            ),
            base_w=base_w[i],
            skip_table=skip_table,
            ray_lo=lo - fused_lo,
            ray_hi=hi - fused_lo,
        )
        if alone:
            march(lo, [(i, segment)], spans)
        else:
            fused.append((i, segment))
    if fused:
        march(fused_lo, fused)

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
