"""Tests for transfer functions and opacity correction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render import (
    TransferFunction1D,
    bone_tf,
    default_tf,
    fire_tf,
    grayscale_tf,
)


def test_table_validation():
    with pytest.raises(ValueError):
        TransferFunction1D(np.zeros((1, 4), np.float32))  # too few entries
    with pytest.raises(ValueError):
        TransferFunction1D(np.zeros((4, 3), np.float32))  # not RGBA
    with pytest.raises(ValueError):
        TransferFunction1D(np.full((4, 4), 2.0, np.float32))  # out of range
    with pytest.raises(ValueError):
        TransferFunction1D(np.zeros((4, 4), np.float32), vmin=1.0, vmax=0.0)


def test_lookup_endpoints_and_clamp():
    table = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.float32)
    tf = TransferFunction1D(table)
    got = tf.lookup_from_u(tf.table_coord(np.array([-0.5, 0.0, 0.5, 1.0, 2.0])))
    assert np.allclose(got[0], 0.0)  # clamped below
    assert np.allclose(got[1], 0.0)
    assert np.allclose(got[2], 0.5)  # midpoint interpolates
    assert np.allclose(got[3], 1.0)
    assert np.allclose(got[4], 1.0)  # clamped above


def test_lookup_linear_between_entries():
    tf = grayscale_tf(resolution=256, max_alpha=1.0)
    v = np.linspace(0, 1, 97)
    got = tf.lookup_from_u(tf.table_coord(v))
    assert np.allclose(got[:, 0], v, atol=1e-3)
    assert np.allclose(got[:, 3], v, atol=1e-3)


def test_lookup_respects_domain():
    table = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.float32)
    tf = TransferFunction1D(table, vmin=10.0, vmax=20.0)
    assert np.allclose(tf.lookup_from_u(tf.table_coord(np.array([15.0])))[0], 0.5)


@pytest.mark.parametrize("maker", [default_tf, bone_tf, fire_tf, grayscale_tf])
def test_presets_valid(maker):
    tf = maker()
    assert tf.resolution == 256
    out = tf.lookup_from_u(tf.table_coord(np.linspace(0, 1, 50)))
    assert np.all(out >= 0) and np.all(out <= 1)
    # Opacity must be (weakly) increasing for these presets.
    alphas = tf.lookup_from_u(tf.table_coord(np.linspace(0, 1, 50)))[:, 3]
    assert np.all(np.diff(alphas) >= -1e-6)


def test_opacity_threshold_value():
    tf = grayscale_tf(max_alpha=0.8)
    thr = tf.opacity_threshold_value(alpha_eps=0.05)
    # alpha(v) = 0.8 v, so alpha > 0.05 at v > 0.0625.
    assert 0.04 < thr < 0.09
    opaque_free = TransferFunction1D(
        np.stack([np.linspace(0, 1, 16)] * 3 + [np.zeros(16)], axis=1).astype(
            np.float32
        )
    )
    assert opaque_free.opacity_threshold_value() == opaque_free.vmax


def corrected_alpha(alpha, dt):
    """Alpha of a constant-opacity transfer function corrected for ``dt``."""
    table = np.zeros((4, 4), np.float32)
    table[:, 3] = alpha
    return TransferFunction1D(table).opacity_corrected(dt).table[0, 3]


def test_opacity_correction_identity_at_unit_step():
    a = np.array([0.0, 0.3, 0.7, 0.99], np.float32)
    tf = TransferFunction1D(np.repeat(a[:, None], 4, axis=1))
    assert np.array_equal(tf.opacity_corrected(1.0).table[:, 3], np.minimum(a, np.float32(0.9999)))


def test_opacity_correction_validation():
    with pytest.raises(ValueError):
        default_tf().opacity_corrected(0.0)


@given(alpha=st.floats(0.0, 0.999), dt=st.floats(0.05, 4.0))
@settings(max_examples=100, deadline=None)
def test_opacity_correction_properties(alpha, dt):
    """Each entry is ``1 − (1 − min(α, 0.9999))^dt`` in float64, rounded
    to float32: within [0, 1] (float32 rounds a nearly opaque entry up
    to 1) and monotone in dt."""
    c = corrected_alpha(alpha, dt)
    clipped = float(min(np.float32(alpha), np.float32(0.9999)))
    assert c == np.float32(1.0 - math.pow(1.0 - clipped, dt))
    assert 0.0 <= c <= 1.0
    c2 = corrected_alpha(alpha, dt * 2)
    assert c2 >= c  # longer step accumulates at least as much


@given(alpha=st.floats(0.01, 0.95))
@settings(max_examples=60, deadline=None)
def test_two_half_steps_equal_one_full_step(alpha):
    """Compositing two dt/2-corrected samples equals one dt sample.

    This is the property that makes the fixed-step march independent of
    how samples fall into bricks (for homogeneous media).
    """
    a_full = corrected_alpha(alpha, 1.0)
    a_half = corrected_alpha(alpha, 0.5)
    combined = a_half + (1 - a_half) * a_half
    assert combined == pytest.approx(a_full, rel=1e-5)
