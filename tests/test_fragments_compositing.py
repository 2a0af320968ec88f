"""Tests for fragment records and the Reduce-phase compositing math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render import (
    FRAGMENT_DTYPE,
    FRAGMENT_NBYTES,
    PLACEHOLDER_KEY,
    blend_background,
    composite_fragments,
    composite_pixel_fragments,
    concat_fragments,
    drop_placeholders,
    empty_fragments,
    fragment_sort_order,
    group_ranks,
    make_fragments,
    over,
)
from repro.render.compositing import _pixel_depth_order


def frag(pixel, depth, rgba):
    return make_fragments(
        np.array([pixel], np.int32),
        np.array([depth], np.float32),
        np.array([rgba], np.float32),
    )


def random_premult_rgba(rng, n):
    a = rng.uniform(0, 1, n).astype(np.float32)
    rgb = rng.uniform(0, 1, (n, 3)).astype(np.float32) * a[:, None]
    return np.concatenate([rgb, a[:, None]], axis=1)


def test_fragment_wire_size_is_24_bytes():
    """4-byte int key + homogeneous 20-byte value (paper restrictions)."""
    assert FRAGMENT_NBYTES == 24
    assert FRAGMENT_DTYPE["pixel"].itemsize == 4


def test_make_fragments_shape_validation():
    with pytest.raises(ValueError):
        make_fragments(np.zeros(2, np.int32), np.zeros(3), np.zeros((2, 4)))


def test_concat_and_empty():
    a = frag(0, 1.0, [0.1, 0.1, 0.1, 0.5])
    assert len(concat_fragments([])) == 0
    assert len(concat_fragments([empty_fragments(), a])) == 1
    assert len(concat_fragments([a, a, a])) == 3


def test_drop_placeholders():
    good = frag(7, 1.0, [0.1, 0.2, 0.3, 0.4])
    bad = frag(int(PLACEHOLDER_KEY), 0.0, [0, 0, 0, 0])
    mixed = concat_fragments([bad, good, bad])
    kept = drop_placeholders(mixed)
    assert len(kept) == 1 and kept[0]["pixel"] == 7


def test_sort_order_groups_pixels_then_depth():
    f = concat_fragments(
        [
            frag(5, 2.0, [0, 0, 0, 0.1]),
            frag(3, 9.0, [0, 0, 0, 0.1]),
            frag(5, 1.0, [0, 0, 0, 0.1]),
            frag(3, 4.0, [0, 0, 0, 0.1]),
        ]
    )
    s = f[fragment_sort_order(f)]
    assert s["pixel"].tolist() == [3, 3, 5, 5]
    assert s["depth"].tolist() == [4.0, 9.0, 1.0, 2.0]


def test_group_ranks():
    keys = np.array([3, 3, 5, 5, 5, 9])
    assert group_ranks(keys).tolist() == [0, 1, 0, 1, 2, 0]
    assert group_ranks(np.array([])).tolist() == []


# -- over operator ------------------------------------------------------------
def test_over_opaque_front_hides_back():
    front = np.array([0.2, 0.3, 0.4, 1.0])
    back = np.array([0.9, 0.9, 0.9, 0.9])
    assert np.allclose(over(front, back), front)


def test_over_transparent_front_passes_back():
    front = np.zeros(4)
    back = np.array([0.5, 0.4, 0.3, 0.8])
    assert np.allclose(over(front, back), back)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_over_is_associative(data):
    """(A over B) over C == A over (B over C) for premultiplied RGBA."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a, b, c = random_premult_rgba(rng, 3)
    left = over(over(a, b), c)
    right = over(a, over(b, c))
    assert np.allclose(left, right, atol=1e-5)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_alpha_monotone_and_bounded_under_chain(seed, n):
    rng = np.random.default_rng(seed)
    frags = random_premult_rgba(rng, n)
    out = np.zeros(4, np.float32)
    prev_alpha = 0.0
    for f in frags:
        out = over(out, f)
        assert out[3] >= prev_alpha - 1e-7
        prev_alpha = out[3]
    assert 0.0 <= out[3] <= 1.0 + 1e-6
    assert np.all(out[:3] <= 1.0 + 1e-5)


# -- reduce compositing --------------------------------------------------------
def test_composite_pixel_sorts_by_depth():
    far = frag(0, 10.0, [0.0, 0.0, 0.9, 0.9])[0:1]
    near = frag(0, 1.0, [0.5, 0.0, 0.0, 0.5])[0:1]
    f = concat_fragments([far, near])
    out = composite_pixel_fragments(f)
    expected = over(
        np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.0, 0.0, 0.9, 0.9])
    )
    assert np.allclose(out, expected, atol=1e-6)


def test_composite_fragments_matches_per_pixel_reference():
    """The vectorised rank-layer blend equals the sequential per-pixel loop."""
    rng = np.random.default_rng(42)
    n, n_pixels = 500, 40
    pix = rng.integers(0, n_pixels, n).astype(np.int32)
    depth = rng.uniform(0, 100, n).astype(np.float32)
    rgba = random_premult_rgba(rng, n)
    frags = make_fragments(pix, depth, rgba)
    fast = composite_fragments(frags, n_pixels)
    for p in range(n_pixels):
        mine = frags[frags["pixel"] == p]
        expected = (
            composite_pixel_fragments(mine) if len(mine) else np.zeros(4, np.float32)
        )
        assert np.allclose(fast[p], expected, atol=1e-5), f"pixel {p}"


def test_composite_fragments_empty():
    out = composite_fragments(empty_fragments(), 16)
    assert out.shape == (16, 4)
    assert np.all(out == 0)


def test_composite_fragments_pixel_base_offset():
    f = frag(100, 1.0, [0.1, 0.2, 0.3, 0.4])
    out = composite_fragments(f, 8, pixel_base=96)
    assert np.allclose(out[4], [0.1, 0.2, 0.3, 0.4])


def test_composite_fragments_rejects_out_of_range():
    f = frag(99, 1.0, [0, 0, 0, 0.5])
    with pytest.raises(ValueError):
        composite_fragments(f, 10)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    n_pixels=st.sampled_from([1, 40, 2**16, 2**16 + 1, 2**18]),
)
@settings(max_examples=100, deadline=None)
def test_pixel_depth_order_matches_lexsort(seed, n, n_pixels):
    """The digit-wise radix is ``np.lexsort((depth, pix))``: both zeros
    tie (arrival order decides), negatives sort below them, denormals
    keep their place, on either side of the one-digit pixel range."""
    rng = np.random.default_rng(seed)
    special = np.array(
        [0.0, -0.0, 1e-45, -1e-45, 1e-39, -3.5, 3.5, np.inf, -np.inf], np.float32
    )
    depth = np.where(
        rng.random(n) < 0.6,
        rng.choice(special, n),
        rng.normal(0, 50, n).astype(np.float32),
    ).astype(np.float32)
    hot = rng.integers(0, n_pixels, 6)  # few pixels, so depths meet in a run
    pix = np.where(
        rng.random(n) < 0.7, rng.choice(hot, n), rng.integers(0, n_pixels, n)
    ).astype(np.int32)
    got = _pixel_depth_order(pix, n_pixels, depth)
    assert np.array_equal(got, np.lexsort((depth, pix)))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_composite_split_invariance(seed):
    """Splitting a pixel's fragment list anywhere then compositing the
    partials (in depth order) equals compositing the full list — the
    associativity property the distributed Reduce depends on."""
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 10)
    depth = np.sort(rng.uniform(0, 50, n)).astype(np.float32)
    rgba = random_premult_rgba(rng, n)
    pix = np.zeros(n, np.int32)
    full = composite_pixel_fragments(make_fragments(pix, depth, rgba))
    cut = int(rng.integers(1, n))
    front = composite_pixel_fragments(make_fragments(pix[:cut], depth[:cut], rgba[:cut]))
    back = composite_pixel_fragments(make_fragments(pix[cut:], depth[cut:], rgba[cut:]))
    assert np.allclose(over(front, back), full, atol=1e-5)


def test_blend_background():
    img = np.array([[[0.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 1.0]]], np.float32)
    out = blend_background(img, (1.0, 0.0, 0.0))
    assert np.allclose(out[0, 0], [1.0, 0.0, 0.0])  # transparent → bg
    assert np.allclose(out[0, 1], [0.5, 0.5, 0.5])  # opaque → fragment
    with pytest.raises(ValueError):
        blend_background(img, (1.0, 0.0))
