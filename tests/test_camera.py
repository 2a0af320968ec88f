"""Tests for the camera: rays, projection round-trip, brick footprints."""

import math

import numpy as np
import pytest

from repro.render import BLOCK, Camera, PixelRect, orbit_camera


def simple_camera(width=64, height=64):
    return Camera(
        eye=(0.0, -100.0, 0.0),
        center=(0.0, 0.0, 0.0),
        up=(0.0, 0.0, 1.0),
        fov_y=math.radians(45.0),
        width=width,
        height=height,
    )


def test_camera_validation():
    with pytest.raises(ValueError):
        Camera(eye=(0, 0, 0), center=(0, 0, 0))
    with pytest.raises(ValueError):
        Camera(eye=(0, 0, 0), center=(0, 0, 1), up=(0, 0, 1))
    with pytest.raises(ValueError):
        Camera(eye=(0, 0, 0), center=(0, 1, 0), width=0)
    with pytest.raises(ValueError):
        Camera(eye=(0, 0, 0), center=(0, 1, 0), fov_y=0.0)


def test_basis_orthonormal():
    cam = simple_camera()
    r, u, f = cam.basis
    for v in (r, u, f):
        assert np.linalg.norm(v) == pytest.approx(1.0)
    assert abs(np.dot(r, u)) < 1e-12
    assert abs(np.dot(r, f)) < 1e-12
    assert abs(np.dot(u, f)) < 1e-12


def test_center_pixel_ray_points_forward():
    cam = simple_camera()
    o, d = cam.rays_for_pixels(np.array([31]), np.array([31]))
    assert np.allclose(o[0], cam.eye)
    _, _, fwd = cam.basis
    # Center-adjacent pixel: direction nearly equals forward.
    assert np.dot(d[0], fwd) > 0.999


def test_rays_are_unit_length():
    cam = simple_camera()
    px, py = np.meshgrid(np.arange(0, 64, 7), np.arange(0, 64, 7))
    _, d = cam.rays_for_pixels(px.ravel(), py.ravel())
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0)


def test_project_ray_roundtrip():
    """Projecting a point on a pixel's ray recovers that pixel."""
    cam = simple_camera()
    px = np.array([3, 17, 40, 63])
    py = np.array([5, 60, 31, 0])
    o, d = cam.rays_for_pixels(px, py)
    points = o + 37.5 * d
    xy, in_front = cam.project_points(points)
    assert np.all(in_front)
    assert np.allclose(xy[:, 0], px + 0.5, atol=1e-9)
    assert np.allclose(xy[:, 1], py + 0.5, atol=1e-9)


def test_points_behind_camera_flagged():
    cam = simple_camera()
    xy, in_front = cam.project_points(np.array([[0.0, -200.0, 0.0]]))
    assert not in_front[0]
    assert np.all(np.isnan(xy[0]))


def test_pixel_index_is_paper_key():
    cam = simple_camera(width=512)
    assert cam.pixel_index(np.array([3]), np.array([2]))[0] == 2 * 512 + 3
    assert cam.pixel_index(np.array([0]), np.array([0])).dtype == np.int32


def test_rect_properties_and_coords():
    r = PixelRect(16, 32, 48, 64)
    assert r.width == 32 and r.height == 32 and r.area == 1024
    assert not r.empty
    px, py = r.pixel_coords()
    assert len(px) == r.area
    assert px.min() == 16 and px.max() == 47
    assert py.min() == 32 and py.max() == 63
    assert PixelRect(5, 5, 5, 9).empty


def test_brick_rect_block_padding_and_clipping():
    cam = simple_camera(width=64, height=64)
    corners = np.array(
        [[x, y, z] for x in (-5, 5) for y in (-5, 5) for z in (-5, 5)], dtype=float
    )
    rect = cam.brick_rect(corners)
    assert rect.x0 % BLOCK == 0 and rect.y0 % BLOCK == 0
    assert rect.x1 % BLOCK == 0 or rect.x1 == cam.width
    assert 0 <= rect.x0 < rect.x1 <= cam.width
    assert 0 <= rect.y0 < rect.y1 <= cam.height


def test_brick_rect_contains_projection():
    cam = simple_camera(width=128, height=128)
    corners = np.array(
        [[x, y, z] for x in (-8, 8) for y in (-8, 8) for z in (-8, 8)], dtype=float
    )
    rect = cam.brick_rect(corners, pad_to_block=False)
    xy, _ = cam.project_points(corners)
    assert rect.x0 <= xy[:, 0].min() and rect.x1 >= xy[:, 0].max()
    assert rect.y0 <= xy[:, 1].min() and rect.y1 >= xy[:, 1].max()


def test_brick_rect_behind_camera_covers_viewport():
    cam = simple_camera()
    corners = np.array(
        [[x, y, z] for x in (-5, 5) for y in (-150, 5) for z in (-5, 5)], dtype=float
    )
    rect = cam.brick_rect(corners)
    assert rect == PixelRect(0, 0, cam.width, cam.height)


def test_offscreen_brick_rect_is_empty():
    cam = simple_camera(width=64, height=64)
    # A box far to the right of the frustum.
    corners = np.array(
        [[x + 500, y, z] for x in (0, 5) for y in (0, 5) for z in (0, 5)],
        dtype=float,
    )
    rect = cam.brick_rect(corners)
    assert rect.empty or rect.area == 0


def test_box_rects_projects_a_list_like_one_box_at_a_time():
    """One projection for a frame's bricks: the footprints of the boxes
    one by one (in front, straddling the eye plane, off-screen), and the
    footprint of the same corners handed to ``brick_rect``."""
    cam = orbit_camera((48, 32, 40), azimuth_deg=20, elevation_deg=35, width=96, height=72)
    rng = np.random.default_rng(5)
    los = rng.integers(-40, 60, (40, 3))
    his = los + rng.integers(1, 50, (40, 3))
    los[0], his[0] = (-500, -500, -500), (500, 500, 500)  # eye inside
    los[1], his[1] = (24, 200, 16), (30, 210, 20)  # beside the frustum
    for pad in (True, False):
        rows = cam.box_rects(los, his, pad)
        assert rows.shape == (40, 4) and rows.dtype == np.int64
        rects = [PixelRect(*row) for row in rows.tolist()]
        assert rects == [cam.box_rect(lo, hi, pad) for lo, hi in zip(los, his)]
        for lo, hi, rect in zip(los, his, rects):
            corners = [[(lo, hi)[c >> a & 1][a] for a in range(3)] for c in range(8)]
            assert rect == cam.brick_rect(np.array(corners, float), pad)
    assert rects[0] == PixelRect(0, 0, cam.width, cam.height)
    assert any(r.empty for r in rects) and any(not r.empty for r in rects)
    assert cam.box_rects([], []).shape == (0, 4)


@pytest.mark.parametrize("width,height", [(48, 48), (64, 24), (17, 53)])
def test_direction_grid_is_rays_for_pixels_in_float32(width, height):
    """The cached grid the kernel gathers from is built by broadcasting
    the pixel columns; it must be bit for bit the per-pixel ray formula,
    cast — for non-square and odd-sized images too."""
    cam = orbit_camera((40, 50, 60), azimuth_deg=63, elevation_deg=-17, width=width, height=height)
    full = PixelRect(0, 0, cam.width, cam.height)
    _, dirs = cam.rays_for_pixels(*full.pixel_coords())
    grid, keys, _ = cam.footprint_rays_f32([(0, 0, width, height)])
    assert grid.dtype == np.float32 and grid.shape == (width * height, 3)
    assert grid.tobytes() == dirs.astype(np.float32).tobytes()
    assert keys.dtype == np.int32 and keys.tolist() == list(range(width * height))


def test_footprint_rays_concatenate_the_rects():
    cam = orbit_camera((32, 32, 32), width=50, height=30)
    rects = [
        PixelRect(3, 2, 19, 11), PixelRect(0, 0, 0, 0), PixelRect(16, 0, 50, 30),
        PixelRect(7, 7, 8, 8), PixelRect(40, 20, 30, 25),  # negative width: empty
    ]
    dirs, keys, cuts = cam.footprint_rays_f32([(r.x0, r.y0, r.x1, r.y1) for r in rects])
    assert cuts.tolist() == [0, 144, 144, 1164, 1165, 1165]
    assert dirs.shape == (1165, 3) and keys.shape == (1165,)
    _, all_dirs, all_keys = cam.rays_for_rect(PixelRect(0, 0, cam.width, cam.height))
    for rect, lo, hi in zip(rects, cuts, cuts[1:]):
        px, py = rect.pixel_coords() if not rect.empty else (np.zeros(0, int),) * 2
        want = cam.pixel_index(px, py)
        assert keys[lo:hi].tolist() == want.tolist()
        assert dirs[lo:hi].tobytes() == all_dirs[want].astype(np.float32).tobytes()
    assert cam.footprint_rays_f32([])[2].tolist() == [0]


def test_orbit_camera_looks_at_center():
    cam = orbit_camera((64, 64, 64), azimuth_deg=45, elevation_deg=30)
    assert np.allclose(cam.center, (32, 32, 32))
    # The volume must be in front of the camera.
    xy, in_front = cam.project_points(np.array([[32.0, 32.0, 32.0]]))
    assert in_front[0]
    # The center projects to the image center.
    assert np.allclose(xy[0], [cam.width / 2, cam.height / 2], atol=1e-6)


def test_orbit_camera_sees_whole_volume():
    cam = orbit_camera((64, 64, 64))
    corners = np.array(
        [[x, y, z] for x in (0, 64) for y in (0, 64) for z in (0, 64)], dtype=float
    )
    xy, in_front = cam.project_points(corners)
    assert np.all(in_front)
    assert xy[:, 0].min() >= 0 and xy[:, 0].max() <= cam.width
    assert xy[:, 1].min() >= 0 and xy[:, 1].max() <= cam.height
