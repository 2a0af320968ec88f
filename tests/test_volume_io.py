"""Tests for the .bvol bricked container and out-of-core reader."""

import numpy as np
import pytest

from repro.volume import BvolReader, make_dataset, write_bvol
from repro.volume.occupancy import (
    brick_occupancy_estimate,
    brick_occupancy_exact,
    grid_occupancy,
)
from repro.volume.bricking import BrickGrid
from repro.volume.datasets import skull_field


def test_roundtrip_volume(tmp_path):
    v = make_dataset("skull", (24, 24, 24))
    path = tmp_path / "skull.bvol"
    grid = write_bvol(path, v, brick_size=10)
    r = BvolReader(path)
    assert r.shape == v.shape and r.name == "skull"
    assert len(r.grid) == len(grid)
    for b in grid:
        assert np.array_equal(r.read_brick(b.id), grid.extract(v, b))


def test_read_single_brick_matches_extract(tmp_path):
    v = make_dataset("supernova", (20, 20, 20))
    path = tmp_path / "sn.bvol"
    grid = write_bvol(path, v, brick_size=8)
    r = BvolReader(path)
    for i in (0, 3, len(grid) - 1):
        assert np.array_equal(r.read_brick(i), grid.extract(v, grid.brick(i)))


def test_reader_tracks_bytes_read(tmp_path):
    v = make_dataset("plume", (8, 8, 16))
    path = tmp_path / "p.bvol"
    write_bvol(path, v, brick_size=8)
    r = BvolReader(path)
    assert r.bytes_read == 0
    payload = r.read_brick(0)
    assert r.bytes_read == payload.nbytes


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bvol"
    path.write_bytes(b"NOTBVOL" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a .bvol"):
        BvolReader(path)


def test_file_size_accounts_for_ghost_overlap(tmp_path):
    v = make_dataset("skull", (16, 16, 16))
    path = tmp_path / "g.bvol"
    grid = write_bvol(path, v, brick_size=8, ghost=1)
    r = BvolReader(path)
    assert r.file_size() > v.data.nbytes  # ghost shells duplicate boundary voxels
    assert r.file_size() >= sum(b.nbytes for b in grid)


# -- occupancy ---------------------------------------------------------------
def test_occupancy_exact_bounds():
    v = make_dataset("skull", (24, 24, 24))
    g = BrickGrid(v.shape, 12)
    occ = grid_occupancy(g, threshold=0.1, volume=v)
    assert occ.shape == (len(g),)
    assert np.all((0 <= occ) & (occ <= 1))


def test_occupancy_estimate_close_to_exact():
    v = make_dataset("skull", (32, 32, 32))
    g = BrickGrid(v.shape, 16)
    exact = grid_occupancy(g, threshold=0.1, volume=v)
    est = grid_occupancy(g, threshold=0.1, field=skull_field, samples_per_axis=16)
    assert np.all(np.abs(exact - est) < 0.15)


def test_occupancy_empty_vs_full():
    g = BrickGrid((8, 8, 8), 8)
    b = g.brick(0)
    assert brick_occupancy_estimate(lambda x, y, z: x * 0, (8, 8, 8), b, 0.5) == 0.0
    assert (
        brick_occupancy_estimate(lambda x, y, z: x * 0 + 1, (8, 8, 8), b, 0.5) == 1.0
    )


def test_occupancy_requires_exactly_one_source():
    v = make_dataset("skull", (8, 8, 8))
    g = BrickGrid(v.shape, 8)
    with pytest.raises(ValueError):
        grid_occupancy(g, 0.1)
    with pytest.raises(ValueError):
        grid_occupancy(g, 0.1, volume=v, field=skull_field)
