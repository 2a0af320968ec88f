/*
 * A launch's per-ray work, one ray (or four lanes of rays) at a time:
 * the compiled twin of numpy_backend's set-up, occupied-box trim,
 * blocked march and emit.
 * Every floating-point operation below is one the NumPy passes perform,
 * in the same width and the same association, so the two give the same
 * bits (see the kernels package docstring).  Build with -O3
 * -ffp-contract=off and without fast-math: a fused multiply-add or a
 * reassociated sum would round differently.  Nothing here calls libm.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#if FLT_EVAL_METHOD != 0
#error "march.c needs float/double arithmetic without excess precision"
#endif

/* One FRAGMENT_DTYPE record: int32 key + 20-byte value. */
typedef struct {
    int32_t pixel;
    float depth, r, g, b, a;
} fragment;

/* np.add.reduce's float32 pairwise sum (numpy loops_utils.h): plain
 * accumulation from -0.0 below 8 terms, eight interleaved partial sums
 * up to 128, halves (cut at a multiple of 8) above. */
static float pairwise_sum(const float *a, int64_t n, int64_t stride)
{
    if (n < 8) {
        float res = -0.0f;
        for (int64_t i = 0; i < n; i++)
            res += a[i * stride];
        return res;
    }
    if (n <= 128) {
        float r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j * stride];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[(i + j) * stride];
        float res = ((r[0] + r[1]) + (r[2] + r[3])) +
                    ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i * stride];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2, stride) +
           pairwise_sum(a + n2 * stride, n - n2, stride);
}

/* np.add.reduceat over one run: the first element, plus the pairwise
 * sum of the rest. */
static float reduceat(const float *a, int64_t n, int64_t stride)
{
    return n > 1 ? a[0] + pairwise_sum(a + stride, n - 1, stride) : a[0];
}

/* np.maximum / np.minimum (NaN propagates from the first operand). */
static double max_d(double a, double b) { return (a >= b || a != a) ? a : b; }
static double min_d(double a, double b) { return (a <= b || a != a) ? a : b; }

/* Four float32 lanes (GCC/Clang vector extensions: SSE on x86-64,
 * plain scalar code where a target has no vectors).  Each lane rounds
 * exactly as the scalar operation does. */
typedef float v4f __attribute__((vector_size(16)));
typedef int32_t v4i __attribute__((vector_size(16)));

static inline v4f splat(float x) { return (v4f){x, x, x, x}; }
static inline v4f sel(v4i m, v4f a, v4f b)
{
    return (v4f)((m & (v4i)a) | (~m & (v4i)b));
}

/* np.maximum / np.minimum: a NaN in either operand wins.  Of two equal
 * zeros either may come back; no zero sign these pick reaches an
 * output (see slab4). */
static inline v4f max4(v4f a, v4f b) { return sel((a != a) | (a > b), a, b); }
static inline v4f min4(v4f a, v4f b) { return sel((a != a) | (a < b), a, b); }

/* np.fmax / np.fmin (C99 fmaxf / fminf) where b is never NaN: a NaN a
 * yields b. */
static inline v4f fmax4(v4f a, v4f b) { return sel(a >= b, a, b); }
static inline v4f fmin4(v4f a, v4f b) { return sel(a <= b, a, b); }

/* np.floor / np.ceil on float32, exact: from 2^23 up every float is an
 * integer, and an infinity or a NaN is its own floor. */
static inline v4f floor4(v4f x)
{
    const v4i small = (x > splat(-8388608.0f)) & (x < splat(8388608.0f));
    const v4f t = __builtin_convertvector(
        __builtin_convertvector(sel(small, x, splat(0.0f)), v4i), v4f);
    return sel(small, t - sel(t > x, splat(1.0f), splat(0.0f)), x);
}
static inline v4f ceil4(v4f x) { return -floor4(-x); }

/* geometry.box_intersect_f32 for four rays: lo/hi are the box corners
 * relative to the eye, d and inv the rays' directions and reciprocals
 * per axis; the slabs fold x, then y, then z.  An axis a ray is parallel
 * to (d == 0) is inside -> (-inf, inf) or outside -> empty, set after
 * the min/max so 0·inf NaNs are overwritten.  Writes the entries
 * clamped to 0 and the exits; returns the hit mask.  The sign of a zero
 * entry or exit never matters: each is compared, or added to or
 * subtracted from a t that is not zero, before anything is stored. */
static inline v4i slab4(const float *lo, const float *hi, const v4f *d,
                        const v4f *inv, v4f *tn, v4f *tf)
{
    v4f n = splat(0.0f), f = splat(0.0f);
    for (int a = 0; a < 3; a++) {
        const v4f t1 = splat(lo[a]) * inv[a], t2 = splat(hi[a]) * inv[a];
        const int inside = lo[a] <= 0.0f && hi[a] >= 0.0f;
        const v4i parallel = d[a] == splat(0.0f);
        const v4f lo_t = sel(parallel, splat(inside ? -INFINITY : INFINITY), min4(t1, t2));
        const v4f hi_t = sel(parallel, splat(inside ? INFINITY : -INFINITY), max4(t1, t2));
        n = a ? max4(n, lo_t) : lo_t;
        f = a ? min4(f, hi_t) : hi_t;
    }
    *tn = max4(n, splat(0.0f));
    *tf = f;
    return (f >= n) & (f >= splat(0.0f));
}

/* Rays [0, m) (m <= 4) of a (n, 3) direction array as per-axis lanes,
 * the spare lanes copies of the last ray, with their reciprocals. */
static inline void load4(const float *dirs, int m, v4f *d, v4f *inv)
{
    const float *r1 = dirs + 3 * (m > 1), *r2 = dirs + 3 * (m > 2 ? 2 : m - 1);
    const float *r3 = dirs + 3 * (m - 1);
    for (int a = 0; a < 3; a++) {
        d[a] = (v4f){dirs[a], r1[a], r2[a], r3[a]};
        inv[a] = splat(1.0f) / d[a];
    }
}

/* np.clip(v, 0, 1) on float32. */
static float clip01(float v)
{
    if (v != v)
        return v;
    v = v > 0.0f ? v : 0.0f;
    return v < 1.0f ? v : 1.0f;
}

/* One trilinear z-lerp: float32 difference, float64 fraction. */
static double z_lerp(const float *flat, int64_t b, int64_t sz, double fz)
{
    float v0 = flat[b];
    float d = flat[b + sz] - v0;
    return (double)v0 + fz * (double)d;
}

/*
 * The ray set-up of one launch.  Rect i (nrect of them) is
 * rects[4i..4i+3] = (x0, y0, width, area) of a viewport `width` pixels
 * wide whose float32 directions, in key order, are `grid`; its rays
 * test the brick box core[6i..6i+5] = (lo, hi) and the volume box
 * [0, volume), both taken relative to the float32 eye.  Writes, for
 * every ray that hits both and has a non-empty brick interval, in ray
 * order: its footprint index, key and direction, its first owned global
 * sample, owned count and first-sample t; and per brick the active-ray
 * offsets cuts[i..i+1] and the owned-sample total.  The caller sizes
 * the per-ray outputs for every footprint ray and keeps every rect
 * inside the viewport.  Returns the number of active rays.
 */
int64_t repro_setup(
    int64_t nrect, const int64_t *rects, int64_t width, const float *grid,
    const float *eye, const float *core, const float *volume, float dt,
    int64_t *active, int32_t *keys, float *dirs, int64_t *kf, int64_t *counts,
    float *t0, int64_t *cuts, int64_t *owned)
{
    float vlo[3], vhi[3];
    for (int a = 0; a < 3; a++) {
        vlo[a] = 0.0f - eye[a];
        vhi[a] = volume[a] - eye[a];
    }
    int64_t n = 0, ray = 0;
    cuts[0] = 0;
    for (int64_t i = 0; i < nrect; i++) {
        const int64_t x0 = rects[4 * i], y0 = rects[4 * i + 1];
        const int64_t w = rects[4 * i + 2], area = rects[4 * i + 3];
        float lo[3], hi[3];
        for (int a = 0; a < 3; a++) {
            lo[a] = core[6 * i + a] - eye[a];
            hi[a] = core[6 * i + 3 + a] - eye[a];
        }
        int64_t own = 0;
        /* x fastest, four pixels of a row at a time */
        const int64_t rows = area > 0 ? area / w : 0;
        for (int64_t y = y0; y < y0 + rows; y++) {
            for (int64_t x = x0; x < x0 + w; x += 4) {
                const int m = x0 + w - x < 4 ? (int)(x0 + w - x) : 4;
                const float *row = grid + 3 * (y * width + x);
                v4f d[3], inv[3], tn_b, tf_b, tn_v, tf_v;
                load4(row, m, d, inv);
                v4i hit = slab4(lo, hi, d, inv, &tn_b, &tf_b);
                hit &= slab4(vlo, vhi, d, inv, &tn_v, &tf_v);
                hit &= tf_b > tn_b;
                /* _sample_intervals: one shared float32 formula, an
                 * int64 cast, the first ordinal clamped at 0 (numpy's
                 * int64 arithmetic wraps, hence the unsigned difference). */
                const v4f c_first = ceil4((tn_b - tn_v) / splat(dt) - splat(0.5f));
                const v4f c_last = ceil4((tf_b - tn_v) / splat(dt) - splat(0.5f));
                for (int k = 0; k < m; k++) {
                    if (!hit[k])
                        continue;
                    int64_t first = (int64_t)c_first[k];
                    if (first < 0)
                        first = 0;
                    const int64_t last = (int64_t)c_last[k];
                    const int64_t count = (int64_t)((uint64_t)last - (uint64_t)first);
                    active[n] = ray + k;
                    keys[n] = (int32_t)(y * width + x + k);
                    for (int a = 0; a < 3; a++)
                        dirs[3 * n + a] = d[a][k];
                    kf[n] = first;
                    counts[n] = count > 0 ? count : 0;
                    t0[n] = tn_v[k] + ((float)first + 0.5f) * dt;
                    own += counts[n];
                    n++;
                }
                ray += m;
            }
        }
        cuts[i + 1] = n;
        owned[i] = own;
    }
    return n;
}

/*
 * Trim, march and emit the rays of one launch.  Segment s (nseg of
 * them) owns rays [seg_ray[s], seg_ray[s + 1]); its payload is flat[s]
 * with dims shape[3s..3s+2], its corner-max table table[s] (NULL: none)
 * and its lattice origin base_w[3s..3s+2].  boxes is NULL when nothing
 * is trimmed; otherwise boxes[6s..6s+5] is segment s's occupied box
 * (lo, hi) in lattice coordinates and each ray's trim interval is
 * written to lead/trail.  The TF table/diff are the opacity-corrected
 * float32 arrays.  block is the owned samples folded per ray per
 * iteration (BLOCK_SIZE in kernels/__init__.py); early termination is
 * checked between blocks.  Writes acc_rgb/acc_a/term in place, and
 * emits into out: n_out placeholders first when `placeholders` is set
 * (each kept ray then lands at its footprint index active[r]), else the
 * kept rays in ray order.  Writes the owned / positioned samples and the kept
 * fragments per segment.  Returns 0, -1 when the scratch allocation
 * fails, or -2 for a footprint index outside out.
 */
int repro_march(
    int64_t nseg, const float *const *flat, const int64_t *shape,
    const uint8_t *const *table, const float *base_w, const float *boxes,
    const int64_t *seg_ray, int clamp, const int64_t *counts, const float *t0,
    const float *dirs, int64_t *lead, int64_t *trail, float dt, int64_t block,
    int use_ert, float ert_alpha, int filter, float u_thr,
    const float *tf_table, const float *tf_diff, int32_t res, int unit_domain,
    float vmin, float inv_span, float *acc_rgb, float *acc_a, uint8_t *term,
    const int32_t *keys, const int64_t *active, int placeholders,
    int64_t n_out, fragment *out, int64_t *owned, int64_t *positioned,
    int64_t *kept)
{
    /* Per visible sample of a block: r, g, b, a, then w·rgb and the
     * transmittance scan. */
    float *rgba = malloc(sizeof(float) * 4 * (size_t)block);
    float *wrgb = malloc(sizeof(float) * 3 * (size_t)block);
    float *p = malloc(sizeof(float) * (size_t)block);
    float *w = malloc(sizeof(float) * (size_t)block);
    if (!rgba || !wrgb || !p || !w) {
        free(rgba); free(wrgb); free(p); free(w);
        return -1;
    }
    int status = 0;
    if (placeholders)
        for (int64_t k = 0; k < n_out; k++)
            out[k] = (fragment){-1, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    int64_t emitted = 0;
    const double dt_d = (double)dt;
    const float scale = (float)(res - 1);
    for (int64_t s = 0; s < nseg; s++) {
        const float *data = flat[s];
        const uint8_t *tab = table[s];
        const int64_t nx = shape[3 * s], ny = shape[3 * s + 1], nz = shape[3 * s + 2];
        const int64_t SX = ny * nz, SY = nz;
        const int64_t sx = nx > 1 ? SX : 0, sy = ny > 1 ? SY : 0, sz = nz > 1 ? 1 : 0;
        const double hi[3] = {(double)(float)(nx - 1), (double)(float)(ny - 1),
                              (double)(float)(nz - 1)};
        const int32_t imax[3] = {(int32_t)(nx - 2 > 0 ? nx - 2 : 0),
                                 (int32_t)(ny - 2 > 0 ? ny - 2 : 0),
                                 (int32_t)(nz - 2 > 0 ? nz - 2 : 0)};
        const double bw[3] = {(double)base_w[3 * s], (double)base_w[3 * s + 1],
                              (double)base_w[3 * s + 2]};
        /* The trim: each ray's ordinals [lead, trail) that can show
         * anything are its slab interval through the occupied box
         * (taken relative to the lattice origin, as the eye sees it in
         * lattice coordinates), with one sample of slack per side; a
         * NaN keeps the ray whole. */
        if (boxes) {
            float box_lo[3], box_hi[3];
            for (int a = 0; a < 3; a++) {
                box_lo[a] = boxes[6 * s + a] - base_w[3 * s + a];
                box_hi[a] = boxes[6 * s + 3 + a] - base_w[3 * s + a];
            }
            for (int64_t r = seg_ray[s]; r < seg_ray[s + 1]; r += 4) {
                const int m = seg_ray[s + 1] - r < 4 ? (int)(seg_ray[s + 1] - r) : 4;
                const int64_t *c = counts + r;
                const float *t = t0 + r;
                const int k1 = m > 1, k2 = m > 2 ? 2 : m - 1, k3 = m - 1;
                const v4f owned_f = {(float)c[0], (float)c[k1], (float)c[k2], (float)c[k3]};
                const v4f first_t = {t[0], t[k1], t[k2], t[k3]};
                v4f d[3], inv[3], tn, tf;
                load4(dirs + 3 * r, m, d, inv);
                slab4(box_lo, box_hi, d, inv, &tn, &tf);
                const v4f l = fmin4(
                    fmax4(ceil4((tn - first_t) / splat(dt)) - splat(1.0f), splat(0.0f)),
                    owned_f);
                const v4f u = fmax4(
                    fmin4(floor4((tf - first_t) / splat(dt)) + splat(2.0f), owned_f),
                    splat(0.0f));
                for (int k = 0; k < m; k++) {
                    lead[r + k] = (int64_t)l[k];
                    trail[r + k] = (int64_t)u[k];
                }
            }
        }
        int64_t own = 0, pos = 0, keep = 0;
        for (int64_t r = seg_ray[s]; r < seg_ray[s + 1]; r++) {
            const int64_t count = counts[r];
            /* A ray is live in the blocks whose window meets its trim
             * interval, until early termination. */
            const int64_t first = boxes ? lead[r] : 0, end = boxes ? trail[r] : count;
            const double t0_d = (double)t0[r];
            const double d[3] = {(double)dirs[3 * r], (double)dirs[3 * r + 1],
                                 (double)dirs[3 * r + 2]};
            float acc[4] = {acc_rgb[3 * r], acc_rgb[3 * r + 1], acc_rgb[3 * r + 2],
                            acc_a[r]};
            int done = term[r];
            int64_t stop = count;
            for (int64_t jb = 0; jb < end && !done; jb += block) {
                if (first >= jb + block)
                    continue;
                const int64_t start = first > jb ? first : jb;
                int64_t n = (end < jb + block ? end : jb + block) - start;
                if (n < 0)
                    n = 0;
                pos += n;
                int64_t m = 0; /* visible samples of this block */
                for (int64_t j = start; j < start + n; j++) {
                    /* int32 ordinal × float32 dt promotes to float64. */
                    const double t = t0_d + (double)(int32_t)j * dt_d;
                    double c[3];
                    int32_t i[3];
                    for (int a = 0; a < 3; a++) {
                        double ca = t * d[a];
                        ca += bw[a];
                        if (clamp) {
                            ca = min_d(max_d(ca, 0.0), hi[a]);
                            i[a] = (int32_t)ca;
                            if (i[a] > imax[a])
                                i[a] = imax[a];
                        } else {
                            i[a] = (int32_t)ca;
                        }
                        c[a] = ca;
                    }
                    const int64_t b = (int64_t)i[0] * SX + (int64_t)i[1] * SY + i[2];
                    if (tab && !tab[b])
                        continue;
                    const double fx = c[0] - i[0], fy = c[1] - i[1], fz = c[2] - i[2];
                    const double c00 = z_lerp(data, b, sz, fz);
                    const double c01 = z_lerp(data, b + sy, sz, fz);
                    const double c0 = c00 + fy * (c01 - c00);
                    const double c10 = z_lerp(data, b + sx, sz, fz);
                    const double c11 = z_lerp(data, b + sx + sy, sz, fz);
                    const double c1 = c10 + fy * (c11 - c10);
                    /* table_coord */
                    float v = (float)(c0 + fx * (c1 - c0));
                    if (!unit_domain)
                        v = (v - vmin) * inv_span;
                    const float u = clip01(v) * scale;
                    if (filter && !(u > u_thr))
                        continue;
                    /* lookup_from_u */
                    int32_t i0 = (int32_t)u;
                    if (i0 > res - 2)
                        i0 = res - 2;
                    const float f = u - (float)i0;
                    float *o = rgba + 4 * m;
                    for (int k = 0; k < 4; k++)
                        o[k] = tf_table[4 * i0 + k] + f * tf_diff[4 * i0 + k];
                    m++;
                }
                if (m == 0)
                    continue; /* nothing folds, termination cannot fire */
                /* Exclusive transmittance: Hillis–Steele doubling scan of
                 * the shifted (1 − α) run. */
                p[0] = 1.0f;
                for (int64_t k = 1; k < m; k++)
                    p[k] = 1.0f - rgba[4 * (k - 1) + 3];
                for (int64_t shift = 1; shift < m; shift <<= 1)
                    for (int64_t k = m - 1; k >= shift; k--)
                        p[k] = p[k] * p[k - shift];
                for (int64_t k = 0; k < m; k++) {
                    const float a = rgba[4 * k + 3];
                    w[k] = p[k] * a;
                    for (int ch = 0; ch < 3; ch++)
                        wrgb[3 * k + ch] = w[k] * rgba[4 * k + ch];
                }
                const float t_prior = 1.0f - acc[3];
                for (int ch = 0; ch < 3; ch++)
                    acc[ch] += t_prior * reduceat(wrgb + ch, m, 3);
                acc[3] += t_prior * reduceat(w, m, 1);
                if (use_ert && acc[3] >= ert_alpha) {
                    done = 1;
                    stop = jb + block;
                }
            }
            own += count < stop ? count : stop;
            for (int ch = 0; ch < 3; ch++)
                acc_rgb[3 * r + ch] = acc[ch];
            acc_a[r] = acc[3];
            term[r] = (uint8_t)done;
            /* Emit: a fragment for every ray that owns a sample and
             * carries any alpha. */
            if (count > 0 && acc[3] > 0.0f) {
                const int64_t at = placeholders ? active[r] : emitted;
                if (at < 0 || at >= n_out) {
                    status = -2;
                    goto finish;
                }
                out[at] = (fragment){keys[r], t0[r], acc[0], acc[1], acc[2], acc[3]};
                emitted++;
                keep++;
            }
        }
        owned[s] = own;
        positioned[s] = pos;
        kept[s] = keep;
    }
finish:
    free(rgba); free(wrgb); free(p); free(w);
    return status;
}
