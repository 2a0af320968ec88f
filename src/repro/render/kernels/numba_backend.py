"""The numba march backend — fused per-ray JIT march loops.

One ``@njit(cache=True, fastmath=False)`` kernel walks each active ray
sample by sample, fusing what the numpy fold does in separate
array passes — positioning, skip-table probe, trilinear gather, transfer
lookup, opacity correction, optional Phong shading, and the
front-to-back fold with block-granular ERT — into a single loop with no
intermediate arrays and no interpreter dispatch.

Parity discipline (see the package docstring for the full contract):
every arithmetic step mirrors the numpy backend's *actual* mixed
precision under NumPy 2 promotion rules — positions and trilinear lerps
ride float64 (``int32 * float32-scalar`` promotes), corner differences
and everything downstream of ``table_coord`` stay float32, truncation
casts and clamp folds are identical — so skip decisions, visible-sample
sets, fragment keys, depths and all ``MapStats`` counters are exact
across backends.  The only divergences are the in-block transmittance
association (sequential product here vs. the numpy doubling scan) and
float32 ``pow``, which band the colors.

``fastmath=False`` is load-bearing: it forbids FMA contraction and
reassociation, keeping the lerp and fold arithmetic bit-compatible with
NumPy's un-fused ufunc loops.

The module imports cleanly without numba (``available()`` → False and
``SPEC.march`` raises); resolution-time fallback lives in
:func:`~repro.render.kernels.resolve_kernel`.  Payloads that are not
float32 (no production volume is) delegate to the numpy backend rather
than compiling a second specialization.
"""

from __future__ import annotations

import numpy as np

from . import KernelSpec, MarchPlan

try:  # pragma: no cover - exercised via the import-blocked tests
    from numba import njit as _njit

    _HAVE_NUMBA = True
    _IMPORT_ERROR: Exception | None = None
except Exception as _exc:  # ImportError, or a broken install
    _HAVE_NUMBA = False
    _IMPORT_ERROR = _exc

    def _njit(*args, **kwargs):  # keep the module importable
        def deco(fn):
            return fn

        return deco


_WARMED = False

_EMPTY_BOOL = np.zeros(0, dtype=bool)


def available() -> bool:
    """Whether the compiled backend can actually run here."""
    return _HAVE_NUMBA


def import_error() -> str:
    """Why numba failed to import (empty string when it imported)."""
    return str(_IMPORT_ERROR) if _IMPORT_ERROR is not None else ""


@_njit(cache=True, fastmath=False)
def _sample_rgba(
    flat,
    j,
    t0i,
    dt64,
    dx64,
    dy64,
    dz64,
    dxf,
    dyf,
    dzf,
    bw0,
    bw1,
    bw2,
    nx,
    ny,
    nz,
    sx,
    sy,
    sz,
    clamp,
    table,
    have_table,
    have_filter,
    u_thr,
    tf_table,
    tf_diff,
    tf_scale,
    tf_vmin,
    tf_inv_range,
    dt_is_one,
    dt_pow,
    shading,
):
    """One owned sample: position → probe → gather → TF → shade → (r,g,b,a).

    Returns ``(r, g, b, a, visible)``; ``visible=False`` means the
    sample was elided by the skip-table probe or the exact per-sample
    filter — exactly the samples the numpy fold drops before its scan.
    Precision mirrors the numpy path op for op (see module docstring).
    """
    f0 = np.float32(0.0)
    f1 = np.float32(1.0)
    # t_flat = t0 + j * dt: int32 * f32-scalar promotes to float64.
    t = t0i + np.float64(j) * dt64
    cx = np.float64(bw0) + t * dx64
    cy = np.float64(bw1) + t * dy64
    cz = np.float64(bw2) + t * dz64
    if clamp:
        hix = np.float64(np.float32(nx - 1))
        hiy = np.float64(np.float32(ny - 1))
        hiz = np.float64(np.float32(nz - 1))
        if cx < 0.0:
            cx = 0.0
        elif cx > hix:
            cx = hix
        if cy < 0.0:
            cy = 0.0
        elif cy > hiy:
            cy = hiy
        if cz < 0.0:
            cz = 0.0
        elif cz > hiz:
            cz = hiz
        ix = int(cx)
        iy = int(cy)
        iz = int(cz)
        mx = nx - 2 if nx >= 2 else 0
        my = ny - 2 if ny >= 2 else 0
        mz = nz - 2 if nz >= 2 else 0
        if ix > mx:
            ix = mx
        if iy > my:
            iy = my
        if iz > mz:
            iz = mz
    else:
        ix = int(cx)
        iy = int(cy)
        iz = int(cz)
    # fx = cx − ix: float64 − int32 array promotes to float64.
    fx = cx - np.float64(ix)
    fy = cy - np.float64(iy)
    fz = cz - np.float64(iz)
    base = (ix * ny + iy) * nz + iz
    if have_table and not table[base]:
        return f0, f0, f0, f0, False
    val = _gather_mixed(flat, base, sx, sy, sz, fx, fy, fz)
    # table_coord: cast to f32, optional rescale, clip, scale to [0, N−1].
    v = np.float32(val)
    if tf_scale:
        v = (v - tf_vmin) * tf_inv_range
    if v < f0:
        v = f0
    elif v > f1:
        v = f1
    u = v * np.float32(tf_table.shape[0] - 1)
    if have_filter and not (u > u_thr):
        return f0, f0, f0, f0, False
    # lookup_from_u.
    i0 = int(u)
    res2 = tf_table.shape[0] - 2
    if i0 > res2:
        i0 = res2
    fu = u - np.float32(i0)
    r = tf_table[i0, 0] + fu * tf_diff[i0, 0]
    g = tf_table[i0, 1] + fu * tf_diff[i0, 1]
    b = tf_table[i0, 2] + fu * tf_diff[i0, 2]
    a = tf_table[i0, 3] + fu * tf_diff[i0, 3]
    if shading:
        r, g, b = _shade(
            flat, nx, ny, nz, sx, sy, sz, cx, cy, cz, dxf, dyf, dzf, r, g, b
        )
    # opacity_correction (python-float operands are weak → float32).
    c9999 = np.float32(0.9999)
    if a > c9999:
        a = c9999
    if not dt_is_one:
        # The f32 cast pins the pow result width (np.power stays f32).
        a = f1 - np.float32((f1 - a) ** dt_pow)
    return r, g, b, a, True


@_njit(cache=True, fastmath=False)
def _gather_mixed(flat, base, sx, sy, sz, fx, fy, fz):
    """The trilinear lerp tree in numpy's actual mixed precision.

    Corner differences are float32 (f32 − f32); each lerp then promotes
    through the float64 fraction — ``v + f*(v' − v)`` with ``f`` float64
    — exactly as the vectorized ``_trilinear_gather`` computes it.
    """
    v000 = flat[base]
    v001 = flat[base + sz]
    v010 = flat[base + sy]
    v011 = flat[base + sy + sz]
    b1 = base + sx
    v100 = flat[b1]
    v101 = flat[b1 + sz]
    v110 = flat[b1 + sy]
    v111 = flat[b1 + sy + sz]
    c00 = np.float64(v000) + fz * np.float64(v001 - v000)
    c01 = np.float64(v010) + fz * np.float64(v011 - v010)
    c10 = np.float64(v100) + fz * np.float64(v101 - v100)
    c11 = np.float64(v110) + fz * np.float64(v111 - v110)
    c0 = c00 + fy * (c01 - c00)
    c1 = c10 + fy * (c11 - c10)
    return c0 + fx * (c1 - c0)


@_njit(cache=True, fastmath=False)
def _tap(flat, nx, ny, nz, sx, sy, sz, tx, ty, tz):
    """One gradient stencil tap: ``trilinear_sample`` at f32 coords.

    ``t*`` are the already-f32 lattice coords (tap − ½); the prep always
    clamps, and its ``fx`` is float64 (f32 array − int32 array), feeding
    the same mixed-precision lerp tree as the main gather.
    """
    f0 = np.float32(0.0)
    hx = np.float32(nx - 1)
    hy = np.float32(ny - 1)
    hz = np.float32(nz - 1)
    if tx < f0:
        tx = f0
    elif tx > hx:
        tx = hx
    if ty < f0:
        ty = f0
    elif ty > hy:
        ty = hy
    if tz < f0:
        tz = f0
    elif tz > hz:
        tz = hz
    ix = int(tx)
    iy = int(ty)
    iz = int(tz)
    mx = nx - 2 if nx >= 2 else 0
    my = ny - 2 if ny >= 2 else 0
    mz = nz - 2 if nz >= 2 else 0
    if ix > mx:
        ix = mx
    if iy > my:
        iy = my
    if iz > mz:
        iz = mz
    fx = np.float64(tx) - np.float64(ix)
    fy = np.float64(ty) - np.float64(iy)
    fz = np.float64(tz) - np.float64(iz)
    base = (ix * ny + iy) * nz + iz
    return _gather_mixed(flat, base, sx, sy, sz, fx, fy, fz)


@_njit(cache=True, fastmath=False)
def _shade(flat, nx, ny, nz, sx, sy, sz, cx, cy, cz, dxf, dyf, dzf, r, g, b):
    """Headlight Phong with the default :class:`PhongParams`.

    Mirrors ``central_gradient`` + ``shade_phong``: the sample position
    is the float64 lattice coord + ½, the six ±½ taps are computed in
    float64 then cast to float32 per tap (the vectorized path's
    ``asarray(taps, f32)``), each tap re-subtracts the f32 half, and the
    Phong algebra runs in float32 with ``add.reduce``'s left-to-right
    sum order.
    """
    f0 = np.float32(0.0)
    f1 = np.float32(1.0)
    half = np.float32(0.5)
    # pos = lattice coord + f32(0.5) → float64.
    px = cx + np.float64(half)
    py = cy + np.float64(half)
    pz = cz + np.float64(half)
    h = 0.5
    vpx = _tap(flat, nx, ny, nz, sx, sy, sz, np.float32(px + h) - half, np.float32(py) - half, np.float32(pz) - half)
    vpy = _tap(flat, nx, ny, nz, sx, sy, sz, np.float32(px) - half, np.float32(py + h) - half, np.float32(pz) - half)
    vpz = _tap(flat, nx, ny, nz, sx, sy, sz, np.float32(px) - half, np.float32(py) - half, np.float32(pz + h) - half)
    vmx = _tap(flat, nx, ny, nz, sx, sy, sz, np.float32(px - h) - half, np.float32(py) - half, np.float32(pz) - half)
    vmy = _tap(flat, nx, ny, nz, sx, sy, sz, np.float32(px) - half, np.float32(py - h) - half, np.float32(pz) - half)
    vmz = _tap(flat, nx, ny, nz, sx, sy, sz, np.float32(px) - half, np.float32(py) - half, np.float32(pz - h) - half)
    # grad = (v₊ − v₋) / f32(2h) with 2h = 1: exact; then the f32 cast.
    gx = np.float32(vpx - vmx)
    gy = np.float32(vpy - vmy)
    gz = np.float32(vpz - vmz)
    mag = np.sqrt((gx * gx + gy * gy) + gz * gz)
    if not (mag > np.float32(1e-4)):  # gradient_epsilon: pass unshaded
        return r, g, b
    nxn = gx / mag
    nyn = gy / mag
    nzn = gz / mag
    lx = -dxf
    ly = -dyf
    lz = -dzf
    ndotl = abs((nxn * lx + nyn * ly) + nzn * lz)
    spec = np.float32(ndotl ** np.float32(24.0))  # shininess
    factor = np.float32(0.25) + np.float32(0.65) * ndotl  # ambient+diffuse
    sc = np.float32(0.25)  # specular
    r = r * factor + sc * spec
    g = g * factor + sc * spec
    b = b * factor + sc * spec
    if r < f0:
        r = f0
    elif r > f1:
        r = f1
    if g < f0:
        g = f0
    elif g > f1:
        g = f1
    if b < f0:
        b = f0
    elif b > f1:
        b = f1
    return r, g, b


@_njit(cache=True, fastmath=False)
def _march_rays(
    flat,
    nx,
    ny,
    nz,
    clamp,
    counts,
    t0,
    dirs,
    bw0,
    bw1,
    bw2,
    dt64,
    dt_pow,
    dt_is_one,
    K,
    use_ert,
    ert_alpha,
    u_thr,
    have_filter,
    table,
    have_table,
    lead,
    trail,
    tf_table,
    tf_diff,
    tf_scale,
    tf_vmin,
    tf_inv_range,
    shading,
    acc_rgb,
    acc_a,
    term,
):
    """March every active ray; returns the (owned, positioned) sample
    counts.

    Per ray, per ``K``-sample block window: accumulate the visible
    samples into block-local partial sums with a sequential running
    transmittance, fold them through ``t_prior = 1 − acc_a`` (the same
    two-level accumulation the numpy backend's scan + ``reduceat``
    fold performs), then apply block-granular ERT.  Only the ordinals
    of a window inside the ray's trim interval ``[lead, trail)`` are
    sampled; cadence, ERT and the owned count run on ``counts``.
    """
    f0 = np.float32(0.0)
    f1 = np.float32(1.0)
    sx = ny * nz if nx > 1 else 0
    sy = nz if ny > 1 else 0
    sz = 1 if nz > 1 else 0
    owned = 0
    positioned = 0
    n = counts.shape[0]
    for i in range(n):
        cnt_i = counts[i]
        if cnt_i <= 0:
            continue
        t0i = np.float64(t0[i])
        dxf = dirs[i, 0]
        dyf = dirs[i, 1]
        dzf = dirs[i, 2]
        dx64 = np.float64(dxf)
        dy64 = np.float64(dyf)
        dz64 = np.float64(dzf)
        lead_i = lead[i]
        trail_i = trail[i]
        jb = 0
        while jb < cnt_i:
            m = cnt_i - jb
            if m > K:
                m = K
            owned += m
            c_r = f0
            c_g = f0
            c_b = f0
            c_w = f0
            btrans = f1
            j_lo = jb if jb > lead_i else lead_i
            j_hi = jb + m if jb + m < trail_i else trail_i
            if j_hi > j_lo:
                positioned += j_hi - j_lo
            for j in range(j_lo, j_hi):
                r, g, b, a, vis = _sample_rgba(
                    flat, j, t0i, dt64, dx64, dy64, dz64,
                    dxf, dyf, dzf, bw0, bw1, bw2,
                    nx, ny, nz, sx, sy, sz, clamp,
                    table, have_table, have_filter, u_thr,
                    tf_table, tf_diff, tf_scale, tf_vmin,
                    tf_inv_range, dt_is_one, dt_pow, shading,
                )
                if vis:
                    w = btrans * a
                    c_r += w * r
                    c_g += w * g
                    c_b += w * b
                    c_w += w
                    btrans = btrans * (f1 - a)
            # Fold the block (adding exact zeros for empty blocks is the
            # identity, matching numpy's fold-only-present-rows).
            t_prior = f1 - acc_a[i]
            acc_rgb[i, 0] += t_prior * c_r
            acc_rgb[i, 1] += t_prior * c_g
            acc_rgb[i, 2] += t_prior * c_b
            acc_a[i] += t_prior * c_w
            if use_ert and acc_a[i] >= ert_alpha:
                term[i] = True
                break
            jb += K
    return owned, positioned


def march(plan: MarchPlan) -> tuple:
    """Adapt a :class:`MarchPlan` to the JIT kernel's flat arguments.

    The compiled marcher already pays no per-launch interpreter cost, so
    a multi-brick launch is simply marched segment by segment over
    slices of the plan's per-ray arrays (contiguous views: the
    accumulators are still written in place).
    """
    if not _HAVE_NUMBA:  # resolve_kernel never hands out this spec then
        raise RuntimeError(
            f"numba backend unavailable ({import_error()!r}); "
            "use kernel='auto' or 'numpy'"
        )
    if any(seg.flat.dtype != np.float32 for seg in plan.segments):
        # Non-f32 payloads (none in production) take the oracle path
        # instead of compiling extra specializations.
        from . import numpy_backend

        return numpy_backend.march(plan)
    tf = plan.tf
    tf_scale = tf.vmin != 0.0 or tf.vmax != 1.0
    u_thr = float(plan.u_thr)
    counts = np.ascontiguousarray(plan.counts, dtype=np.int64)
    if plan.lead is None:  # nothing to trim: every ray's whole run
        lead, trail = np.zeros_like(counts), counts
    else:
        lead = np.ascontiguousarray(plan.lead, dtype=np.int64)
        trail = np.ascontiguousarray(plan.trail, dtype=np.int64)
    t0 = np.ascontiguousarray(plan.t0, dtype=np.float32)
    dirs = np.ascontiguousarray(plan.dirs, dtype=np.float32)
    owned, positioned = [], []
    for seg in plan.segments:
        nx, ny, nz = (int(d) for d in seg.shape)
        if seg.skip_table is not None:
            table = np.ascontiguousarray(seg.skip_table)
            have_table = True
        else:
            table = _EMPTY_BOOL
            have_table = False
        rays = slice(seg.ray_lo, seg.ray_hi)
        own, pos = _march_rays(
            np.ascontiguousarray(seg.flat),
            nx,
            ny,
            nz,
            bool(seg.need_clamp),
            counts[rays],
            t0[rays],
            dirs[rays],
            np.float32(seg.base_w[0]),
            np.float32(seg.base_w[1]),
            np.float32(seg.base_w[2]),
            np.float64(np.float32(plan.dt)),  # f32 step widened, like j*dt
            np.float32(plan.dt),  # opacity-correction exponent
            plan.dt == 1.0,
            int(plan.block_size),
            bool(plan.use_ert),
            np.float32(plan.ert_alpha),
            np.float32(u_thr),
            u_thr >= 0,
            table,
            have_table,
            lead[rays],
            trail[rays],
            tf.table,
            tf._diff,
            tf_scale,
            np.float32(tf.vmin),
            np.float32(1.0 / (tf.vmax - tf.vmin))
            if tf_scale
            else np.float32(1.0),
            bool(plan.shading),
            plan.acc_rgb[rays],
            plan.acc_a[rays],
            plan.term[rays],
        )
        owned.append(int(own))
        positioned.append(int(pos))
    return owned, positioned


def warmup() -> None:
    """Force the one-time JIT compile (idempotent, per process).

    Pool workers call this at spawn — inside a ``kernel-warmup`` tracer
    span — so the first frame never pays compilation latency.  One call
    covers every runtime branch (table/shading/ERT are plain
    booleans, not specializations); only the array dtypes select the
    compiled signature, and production payloads are always float32.
    """
    global _WARMED
    if not _HAVE_NUMBA:
        raise RuntimeError(
            f"numba backend unavailable ({import_error()!r}); "
            "cannot warm up"
        )
    if _WARMED:
        return
    rng = np.random.default_rng(0)
    data = rng.random((4, 4, 4), dtype=np.float32)
    tf_table = np.linspace(0.0, 1.0, 32, dtype=np.float32)[:, None].repeat(
        4, axis=1
    )
    tf_table[:8, 3] = 0.0  # a leading zero-alpha run, so the filter runs
    tf_diff = tf_table[1:] - tf_table[:-1]
    n = 2
    acc_rgb = np.zeros((n, 3), dtype=np.float32)
    acc_a = np.zeros(n, dtype=np.float32)
    term = np.zeros(n, dtype=bool)
    _march_rays(
        data.ravel(), 4, 4, 4, True,
        np.array([6, 6], dtype=np.int64),
        np.full(n, 0.25, dtype=np.float32),
        np.tile(np.array([[0.6, 0.5, 0.4]], dtype=np.float32), (n, 1)),
        np.float32(0.0), np.float32(0.0), np.float32(0.0),
        np.float64(0.5), np.float32(0.5), False,
        2, True, np.float32(0.98), np.float32(7.0), True,
        np.ones(64, dtype=bool), True,
        np.array([0, 1], dtype=np.int64),
        np.array([5, 6], dtype=np.int64),
        tf_table, tf_diff, False, np.float32(0.0), np.float32(1.0),
        True, acc_rgb, acc_a, term,
    )
    _WARMED = True


SPEC = KernelSpec(name="numba", march=march, warmup=warmup)
