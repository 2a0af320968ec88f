"""The NumPy kernels: a launch's set-up, trim, march and emit as
vectorised passes over all of its rays at once — the reference the C
kernels (``march.c``) mirror operation for operation and are tested
against byte for byte.  A per-brick NumPy "launch" pays a few hundred
interpreter dispatches for a couple of thousand rays, so every pass
runs over the launch's rays together; the blocked march (:func:`march`,
once per stretch of consecutive segments — a payload with a size-1 axis
is a stretch of its own) is described in the raycast module docstring.

Launch layout: the segments' payloads are copied into the slots of one
4-D **atlas** ``(bricks, NX, NY, NZ)`` sized to the largest payload, so
ravel strides are launch-wide scalars and a brick is an offset (the
corner-max tables form a second atlas; a table-less brick rides as an
all-True slot, which the exact ``u > u_thr`` filter makes equivalent).
What stays brick-wide — lattice origin, atlas offset and, when payload
shapes differ, the clamp bounds — is expanded per sample with one
``np.repeat`` over the segments' sample counts.  A launch of one keeps
all of it scalar and its payload in place.

Fusing cannot change a bit: every operation is elementwise per sample
or segment-local per ray (``segmented_exclusive_cumprod`` scans within a
ray's run, so ``max_run`` over a larger launch changes nothing;
``np.add.reduceat`` folds each run on its own; termination and the block
cadence count from each ray's own first sample), and clamping a row
whose brick needs no clamp is the identity, so one clamp decision
serves the launch.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..compositing import segmented_exclusive_cumprod
from ..fragments import FRAGMENT_DTYPE, PLACEHOLDER_KEY, make_fragments
from ..geometry import box_intersect_f32
from ..raycast import _gather_strides, _trilinear_gather
from . import BLOCK_SIZE, LaunchRays, MarchPlan, SetupPlan, trim_boxes

_F32 = np.float32
_F0 = np.float32(0.0)


def _sample_intervals(
    tn_brick: np.ndarray,
    tf_brick: np.ndarray,
    tn_volume: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(k_first, count) of the owned global sample indices per ray.

    ``k`` is owned iff ``t_k = tnv + (k+½)·dt`` lies in
    ``[tn_brick, tf_brick)``.  Evaluated with one shared float32 formula
    so adjacent bricks' runs tile each ray exactly (see the raycast
    module docstring).
    """
    dt = _F32(dt)
    # int64: a tiny dt over a long ray can exceed int32 sample indices,
    # which would wrap in the cast and silently drop the whole brick.
    kf = np.ceil((tn_brick - tn_volume) / dt - _F32(0.5)).astype(np.int64)
    np.maximum(kf, 0, out=kf)
    kl = np.ceil((tf_brick - tn_volume) / dt - _F32(0.5)).astype(np.int64)
    return kf, np.maximum(kl - kf, 0)


def setup(plan: SetupPlan) -> LaunchRays:
    """Every footprint ray against its own brick's box and the volume box
    (whose entry anchors the global sample lattice), compacted."""
    dirs, keys, ray_cuts = plan.camera.footprint_rays_f32(plan.rects)
    areas = np.diff(ray_cuts)
    eye32 = np.asarray(plan.camera.eye, dtype=np.float64).astype(_F32)
    with np.errstate(divide="ignore", over="ignore"):
        inv = _F32(1.0) / dirs
    rel = plan.cores - eye32
    tn_b, tf_b, hit_b = box_intersect_f32(
        np.repeat(rel[:, 0], areas, axis=0), np.repeat(rel[:, 1], areas, axis=0),
        dirs, inv,
    )
    tn_v, _, hit_v = box_intersect_f32(
        _F32(0.0) - eye32, np.asarray(plan.volume_shape, dtype=_F32) - eye32, dirs, inv
    )
    active = np.nonzero(hit_b & hit_v & (tf_b > tn_b))[0]
    tn_v = tn_v[active]
    dt = _F32(plan.dt)
    kf, counts = _sample_intervals(tn_b[active], tf_b[active], tn_v, dt)
    # t of each ray's first owned sample; later samples add whole steps.
    t0 = tn_v + (kf.astype(_F32) + _F32(0.5)) * dt
    cuts = np.searchsorted(active, ray_cuts)
    owned_cum = np.zeros(len(active) + 1, dtype=np.int64)
    np.cumsum(counts, out=owned_cum[1:])
    return LaunchRays(
        ray_cuts.astype(np.int64), active, keys[active], dirs[active], kf, counts,
        t0, cuts, np.diff(owned_cum[cuts]),
    )


def launch(plan: MarchPlan) -> tuple:
    """Trim, march and emit one launch: ``(fragments, owned, positioned,
    kept)``, the last three per segment."""
    segs = plan.segments
    seg_rays = np.array([s.ray_lo for s in segs] + [len(plan.counts)])
    # -- occupied-box trim: one more slab test of every ray, against the
    # box of its own brick's table, gives the ordinals [lead, trail)
    # outside which the table drops every sample — with one sample of
    # slack per side, far more than the float32 slab test can be off by
    # (≈ 2e-7·t).  A ray that misses its box gets trail <= lead by the
    # same arithmetic; a NaN keeps the ray whole.
    boxes = trim_boxes(segs)
    if boxes is not None:
        rays_of = np.diff(seg_rays)
        rel = boxes - np.array([s.base_w for s in segs], dtype=_F32)[:, None, :]
        with np.errstate(divide="ignore", over="ignore"):
            inv = _F32(1.0) / plan.dirs
        tn_o, tf_o, _ = box_intersect_f32(
            np.repeat(rel[:, 0], rays_of, axis=0), np.repeat(rel[:, 1], rays_of, axis=0),
            plan.dirs, inv,
        )
        dt, t0, owned_f = _F32(plan.dt), plan.t0, plan.counts.astype(_F32)
        lead = np.fmin(np.fmax(np.ceil((tn_o - t0) / dt) - _F32(1.0), _F0), owned_f)
        trail = np.fmax(np.fmin(np.floor((tf_o - t0) / dt) + _F32(2.0), owned_f), _F0)
        plan.lead, plan.trail = lead.astype(np.int64), trail.astype(np.int64)

    # -- march, once per stretch of consecutive segments; a payload with
    # a size-1 axis is a stretch of its own (any grouping is bitwise the
    # same).
    owned, positioned, first = [], [], 0
    for b, seg in enumerate(segs):
        if b + 1 < len(segs) and min(seg.shape) > 1 and min(segs[b + 1].shape) > 1:
            continue
        lo, hi = segs[first].ray_lo, seg.ray_hi
        cut = slice(lo, hi)
        own, pos = march(replace(
            plan,
            segments=tuple(
                replace(s, ray_lo=s.ray_lo - lo, ray_hi=s.ray_hi - lo) for s in segs[first : b + 1]
            ),
            counts=plan.counts[cut], t0=plan.t0[cut], dirs=plan.dirs[cut],
            lead=None if plan.lead is None else plan.lead[cut],
            trail=None if plan.trail is None else plan.trail[cut],
            acc_rgb=plan.acc_rgb[cut], acc_a=plan.acc_a[cut], term=plan.term[cut],
        ))
        owned.append(own)
        positioned.append(pos)
        first = b + 1

    # -- emit: one fragment per contributing ray (or per footprint ray,
    # with placeholders).
    kept = np.nonzero((plan.counts > 0) & (plan.acc_a > 0))[0]
    fragments = make_fragments(
        plan.keys[kept], plan.t0[kept],
        np.concatenate([plan.acc_rgb[kept], plan.acc_a[kept, None]], axis=1),
    )
    if plan.emit_placeholders:
        # Every "thread" emits: useless rays write a later-discarded
        # placeholder with zeroed depth and colour.
        emitted = np.zeros(plan.n_rays, FRAGMENT_DTYPE)
        emitted["pixel"] = PLACEHOLDER_KEY
        emitted[plan.active[kept]] = fragments
        fragments = emitted
    return (
        fragments, np.concatenate(owned), np.concatenate(positioned),
        np.diff(np.searchsorted(kept, seg_rays)),
    )


class _Launch:
    """Payload atlas + brick-wide march parameters of a launch.

    Brick-wide values are scalars for a launch of one and per-segment
    arrays otherwise (``hi``/``imax`` stay scalar while every payload
    has the same shape).
    """

    def __init__(self, segs):
        self.clamp = any(s.need_clamp for s in segs)
        shapes = np.array([s.shape for s in segs])
        shape = tuple(int(d) for d in shapes.max(axis=0))
        nx, ny, nz = shape
        self.ravel = (ny * nz, nz)  # x and y ravel strides (z is 1)
        if len(segs) == 1:
            seg = segs[0]
            self.flat, self.table = seg.flat, seg.skip_table
            self.bw = tuple(seg.base_w)
            self.off = None
        else:
            atlas = np.zeros((len(segs),) + shape, dtype=segs[0].flat.dtype)
            table = None
            if any(s.skip_table is not None for s in segs):
                table = np.zeros(atlas.shape, dtype=bool)
            for b, s in enumerate(segs):
                bx, by, bz = s.shape
                atlas[b, :bx, :by, :bz] = s.data
                if table is not None:
                    table[b, :bx, :by, :bz] = (
                        True
                        if s.skip_table is None
                        else s.skip_table.reshape(s.shape)
                    )
            self.flat = atlas.ravel()
            self.table = None if table is None else table.ravel()
            self.bw = tuple(
                np.array([s.base_w[a] for s in segs], dtype=_F32)
                for a in range(3)
            )
            self.off = np.arange(len(segs)) * (nx * ny * nz)
        # Degenerate (size-1) axes collapse the +1 neighbour onto the
        # voxel; such bricks always launch alone.
        self.strides = _gather_strides(shape)
        if self.clamp and (shapes != shapes[0]).any():
            self.hi = tuple((shapes[:, a] - 1).astype(_F32) for a in range(3))
            self.imax = tuple(
                np.maximum(shapes[:, a] - 2, 0).astype(np.int32) for a in range(3)
            )
        else:
            self.hi = tuple(_F32(d - 1) for d in shape)
            self.imax = tuple(max(d - 2, 0) for d in shape)
        # int32 ravel offsets would wrap on a ≥ 2³¹-voxel atlas
        self.wide = self.flat.size >= 2**31
        if self.off is not None:
            self.off = self.off.astype(np.int64 if self.wide else np.int32)


def march(plan: MarchPlan) -> tuple[np.ndarray, np.ndarray]:
    """Run the blocked march; returns the (owned, positioned) sample
    counts per segment."""
    segs = plan.segments
    counts = plan.counts
    dt = _F32(plan.dt)
    K = BLOCK_SIZE
    use_ert = plan.use_ert
    ert_alpha = _F32(plan.ert_alpha)
    u_thr = plan.u_thr
    lead, trail = plan.lead, plan.trail
    shading = plan.shading
    tf = plan.tf
    acc_rgb_c = plan.acc_rgb
    acc_a_c = plan.acc_a
    term = plan.term
    n_act = len(counts)
    fused = len(segs) > 1
    lau = _Launch(segs)
    flat, skip_table, clamp = lau.flat, lau.table, lau.clamp
    SX, SY = lau.ravel
    strides = lau.strides
    seg_rays = np.array([s.ray_lo for s in segs] + [n_act])
    # Ray directions as contiguous columns (strided operands are slow).
    dir_cols = [np.ascontiguousarray(plan.dirs[:, a]) for a in range(3)]

    # The two expansions below read the current block's li/cnt/seg_cnt
    # (rebound every iteration of the loop).
    def per_ray(col):
        """A per-ray column expanded to the block's samples."""
        return np.repeat(col if all_alive else col[li], cnt)

    def per_brick(value):
        """A brick-wide value as a per-sample operand."""
        return np.repeat(value, seg_cnt) if np.ndim(value) else value

    # Ordinal at which early termination stopped each ray: a ray owns
    # (and is charged for) every sample of every block it entered.
    stop = counts.copy()
    positioned = np.zeros(len(segs), dtype=np.int64)
    # A ray is live in the blocks that can still change it: up to its
    # last owned sample, or — trimmed — only where its interval meets
    # the block's window (outside it nothing is positioned, so nothing
    # is accumulated and early termination cannot newly fire).
    end = counts if lead is None else trail
    max_end = int(end.max()) if n_act else 0
    jb = 0
    while jb < max_end:
        alive = (end > jb) & ~term
        if lead is not None:
            alive &= lead < jb + K
        if not alive.any():
            if lead is None:
                break
            jb += K
            continue
        li = np.nonzero(alive)[0]
        L = len(li)
        all_alive = L == n_act
        # Samples to position: the block's window of every live ray,
        # cut to the ray's trim interval (trail <= counts).
        if lead is None:
            start = jb
            cnt = np.minimum(counts[li] - jb, K)
        else:
            start = np.maximum(lead[li], jb)
            cnt = np.maximum(np.minimum(trail[li], jb + K) - start, 0)
        # Flat (ray, step) list straight from those intervals.
        cum = np.zeros(L + 1, dtype=np.int32)
        np.cumsum(cnt, dtype=np.int32, out=cum[1:])
        if cum[-1] == 0:
            jb += K
            continue
        rows = np.repeat(np.arange(L, dtype=np.int32), cnt)
        # ordinal = start of the ray's stretch + rank within it
        j_flat = np.arange(cum[-1], dtype=np.int32) + np.take(
            (start - cum[:-1]).astype(np.int32), rows
        )

        if fused:
            # Samples are ray-ordered, so each segment is one stretch of
            # the block: brick-wide values expand over those stretches.
            lb = seg_rays if all_alive else np.searchsorted(li, seg_rays)
            seg_cnt = np.diff(np.take(cum, lb))
            positioned += seg_cnt
        else:
            positioned += cum[-1]

        # int32 × float32 scalar promotes: positions, clamps and lerp
        # fractions run in float64 (see the raycast module docstring).
        t_flat = per_ray(plan.t0) + j_flat * dt
        del j_flat
        # Axis by axis, so one axis' operands are dead before the next
        # one's are built (block temporaries are what a launch costs in
        # memory).  Clamp-to-edge is folded into the lattice coords
        # (pos − ½): clipping c to [0, n−1] and the base index to n−2
        # reproduces the per-corner index clamp while keeping the +1
        # offsets constant.
        pos, q, idx = [], [], []
        for axis in range(3):
            d = per_ray(dir_cols[axis])
            c = t_flat * d
            c += per_brick(lau.bw[axis])
            if shading:
                pos.append((c, d))  # shading keeps the unclamped position
            if clamp:
                # np.clip, as two passes in place (of a copy if shading)
                c = np.maximum(c, _F0, out=None if shading else c)
                np.minimum(c, per_brick(lau.hi[axis]), out=c)
                i = c.astype(np.int32)
                np.minimum(i, per_brick(lau.imax[axis]), out=i)
            else:
                i = c.astype(np.int32)
            q.append(c)
            idx.append(i)
        del t_flat, c, d, i
        if lau.wide:
            idx = [i.astype(np.int64) for i in idx]
        base = idx[0] * SX
        base += idx[1] * SY
        base += idx[2]
        if fused:
            base += per_brick(lau.off)

        if skip_table is not None:
            # The skip test indexes the table at the exact 2×2×2 support
            # base the trilinear gather uses.
            op = np.nonzero(np.take(skip_table, base))[0]
            if len(op) != len(base):
                if len(op) == 0:
                    jb += K
                    continue
                base = np.take(base, op)
                rows = np.take(rows, op)
                q = [np.take(v, op) for v in q]
                idx = [np.take(v, op) for v in idx]
                pos = [(np.take(c, op), np.take(d, op)) for c, d in pos]

        fx, fy, fz = [c - i for c, i in zip(q, idx)]
        del q, idx
        values = _trilinear_gather(flat, strides, base, fx, fy, fz)
        del base, fx, fy, fz
        u = tf.table_coord(values)
        opq = np.nonzero(u > _F32(u_thr))[0] if u_thr >= 0 else np.arange(len(u))
        if len(opq) == 0:
            jb += K
            continue
        u_op = np.take(u, opq)
        rows_op = np.take(rows, opq)
        rgba = tf.lookup_from_u(u_op)
        if shading:
            from ..shading import central_gradient, shade_phong

            pos_op = np.stack(
                [np.take(c, opq) for c, _ in pos], axis=1
            ) + _F32(0.5)
            if fused:
                # Gradient taps read a brick's own 3-D payload.
                cuts = np.searchsorted(np.take(li, rows_op), seg_rays)
                grads = np.empty((len(opq), 3), dtype=_F32)
                for seg, a, b in zip(segs, cuts[:-1], cuts[1:]):
                    if b > a:
                        grads[a:b] = central_gradient(seg.data, pos_op[a:b])
            else:
                grads = central_gradient(segs[0].data, pos_op)
            view = np.stack([np.take(d, opq) for _, d in pos], axis=1)
            rgba[:, :3] = shade_phong(rgba[:, :3], grads, view)
        a = rgba[:, 3]  # the table is already corrected for dt

        first = np.empty(len(rows_op), dtype=bool)
        first[0] = True
        np.not_equal(rows_op[1:], rows_op[:-1], out=first[1:])
        trans = segmented_exclusive_cumprod(
            _F32(1.0) - a, first, max_run=int(cnt.max())
        )
        w = trans * a
        starts = np.nonzero(first)[0]
        present = np.take(rows_op, starts)  # rows with ≥1 visible sample
        t_prior = _F32(1.0) - acc_a_c[li]
        contrib = np.add.reduceat(w[:, None] * rgba[:, :3], starts, axis=0)
        lip = li[present]
        acc_rgb_c[lip] += t_prior[present, None] * contrib
        acc_a_c[lip] += t_prior[present] * np.add.reduceat(w, starts)

        if use_ert:
            done = acc_a_c[li] >= ert_alpha
            if done.any():
                hit = li[done]
                term[hit] = True
                stop[hit] = jb + K
        jb += K
    # Every *owned* sample of a block is counted before any empty-space
    # elision (trim or table) — the counters are part of the bitwise
    # parity contract across accel modes and marches.
    owned = np.minimum(counts, stop)
    return np.add.reduceat(owned, seg_rays[:-1]), positioned

