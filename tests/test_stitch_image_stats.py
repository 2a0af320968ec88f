"""Tests for stitching, PPM output, image metrics, and sim accounting."""

import numpy as np
import pytest

from repro.core import JobConfig, MapWork
from repro.render import (
    image_stats,
    max_abs_diff,
    psnr,
    rgba_to_rgb8,
    stitch_pixels,
    write_ppm,
)
from repro.sim import SimClusterExecutor, accelerator_cluster


# -- stitching -------------------------------------------------------------
def test_stitch_scatters_parts():
    keys_a = np.array([0, 3])
    rgba_a = np.array([[1, 0, 0, 1], [0, 1, 0, 1]], np.float32)
    keys_b = np.array([5])
    rgba_b = np.array([[0, 0, 1, 1]], np.float32)
    img = stitch_pixels([(keys_a, rgba_a), (keys_b, rgba_b)], width=3, height=2)
    assert img.shape == (2, 3, 4)
    assert np.allclose(img[0, 0], [1, 0, 0, 1])
    assert np.allclose(img[1, 0], [0, 1, 0, 1])  # key 3 = row 1, col 0
    assert np.allclose(img[1, 2], [0, 0, 1, 1])  # key 5 = row 1, col 2
    assert np.allclose(img[0, 1], 0)  # untouched pixel transparent


def test_stitch_rejects_duplicates_and_bad_keys():
    k = np.array([1])
    v = np.ones((1, 4), np.float32)
    with pytest.raises(ValueError, match="more than one reducer"):
        stitch_pixels([(k, v), (k, v)], 4, 4)
    with pytest.raises(ValueError, match="outside"):
        stitch_pixels([(np.array([16]), v)], 4, 4)
    with pytest.raises(ValueError, match="outside"):
        stitch_pixels([(np.array([-1]), v)], 4, 4)
    with pytest.raises(ValueError):
        stitch_pixels([(np.array([0, 1]), v)], 4, 4)  # shape mismatch


def test_stitch_empty_parts_ok():
    img = stitch_pixels([], 4, 4)
    assert np.all(img == 0)
    img = stitch_pixels([(np.array([], np.int64), np.zeros((0, 4), np.float32))], 4, 4)
    assert np.all(img == 0)


# -- PPM / rgb8 -------------------------------------------------------------
def test_rgba_to_rgb8_blends_background():
    img = np.zeros((1, 2, 4), np.float32)
    img[0, 1] = [1, 1, 1, 1]
    rgb = rgba_to_rgb8(img, background=(0.0, 0.0, 1.0))
    assert rgb.dtype == np.uint8
    assert rgb[0, 0].tolist() == [0, 0, 255]  # background shows through
    assert rgb[0, 1].tolist() == [255, 255, 255]


def test_write_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, (5, 7)).astype(np.float32)
    rgb = rng.uniform(0, 1, (5, 7, 3)).astype(np.float32) * a[..., None]
    img = np.concatenate([rgb, a[..., None]], axis=2)
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n7 5\n255\n")
    pixels = np.frombuffer(raw.split(b"255\n", 1)[1], np.uint8).reshape(5, 7, 3)
    assert np.array_equal(pixels, rgba_to_rgb8(img))


# -- metrics -----------------------------------------------------------------
def test_psnr_identical_is_inf_and_symmetry():
    a = np.random.default_rng(1).uniform(0, 1, (8, 8, 4))
    assert psnr(a, a) == float("inf")
    b = a + 0.01
    assert psnr(a, b) == pytest.approx(psnr(b, a))
    assert psnr(a, b) == pytest.approx(40.0, abs=0.1)  # mse = 1e-4


def test_diff_metrics():
    a = np.zeros((2, 2))
    b = np.array([[0.0, 0.5], [0.0, 0.0]])
    assert max_abs_diff(a, b) == 0.5
    with pytest.raises(ValueError):
        max_abs_diff(a, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        psnr(a, np.zeros((3, 3)))


def test_image_stats_fields():
    img = np.zeros((4, 4, 4), np.float32)
    img[0, 0] = [0.2, 0.2, 0.2, 1.0]
    s = image_stats(img)
    assert s["covered_fraction"] == pytest.approx(1 / 16)
    assert 0 <= s["mean_alpha"] <= 1


# -- sim traffic accounting ----------------------------------------------------
def test_sim_outcome_byte_and_utilization_accounting():
    n_gpus = 4
    works = [
        MapWork(
            chunk_id=i,
            gpu=i % n_gpus,
            upload_bytes=1 << 20,
            n_rays=4096,
            n_samples=1_000_000,
            pairs_emitted=5000,
            pairs_to_reducer=np.full(n_gpus, 1000, np.int64),
        )
        for i in range(8)
    ]
    outcome, cluster = SimClusterExecutor(accelerator_cluster(n_gpus)).execute(
        works, pair_nbytes=24
    )
    assert outcome.bytes_uploaded == 8 * (1 << 20)
    assert outcome.bytes_downloaded == 8 * 5000 * 24
    assert 0 < outcome.gpu_utilization <= 1.0
    # All traffic intranode on a single node.
    assert outcome.bytes_internode == 0
    assert outcome.bytes_intranode == 8 * 4 * 1000 * 24


def test_sim_async_upload_bytes_counted():
    works = [
        MapWork(0, 0, 1 << 20, 4096, 1_000_000, 5000, np.array([5000], np.int64))
    ]
    outcome, _ = SimClusterExecutor(
        accelerator_cluster(1), JobConfig(async_upload=True)
    ).execute(works, pair_nbytes=24)
    assert outcome.bytes_uploaded == 1 << 20


def test_sim_zero_copy_skips_download():
    works = [
        MapWork(0, 0, 1 << 20, 4096, 1_000_000, 5000, np.array([5000], np.int64))
    ]
    outcome, _ = SimClusterExecutor(
        accelerator_cluster(1), JobConfig(zero_copy_fragments=True)
    ).execute(works, pair_nbytes=24)
    assert outcome.bytes_downloaded == 0
