"""Tests for the volume container and procedural datasets."""

import numpy as np
import pytest

from repro.volume import (
    DATASET_FIELDS,
    PAPER_RESOLUTIONS,
    Volume,
    field_on_grid,
    make_dataset,
)


def test_volume_casts_to_float32():
    v = Volume(np.zeros((4, 4, 4), dtype=np.float64))
    assert v.data.dtype == np.float32


def test_volume_rejects_non_3d():
    with pytest.raises(ValueError):
        Volume(np.zeros((4, 4)))


def test_volume_geometry():
    v = Volume(np.zeros((8, 16, 32), dtype=np.float32))
    assert v.shape == (8, 16, 32)


def test_resolution_label():
    assert Volume(np.zeros((64,) * 3, np.float32)).resolution_label() == "64^3"
    assert (
        Volume(np.zeros((8, 8, 32), np.float32)).resolution_label() == "8x8x32"
    )


def test_region_extraction_and_validation():
    data = np.arange(4 * 4 * 4, dtype=np.float32).reshape(4, 4, 4)
    v = Volume(data)
    r = v.region((1, 0, 2), (3, 2, 4))
    assert r.shape == (2, 2, 2)
    assert np.array_equal(r, data[1:3, 0:2, 2:4])
    with pytest.raises(ValueError):
        v.region((0, 0, 0), (5, 4, 4))
    with pytest.raises(ValueError):
        v.region((2, 0, 0), (2, 4, 4))


def test_field_on_grid_region_matches_full():
    """Evaluating a sub-region must equal slicing the full evaluation."""
    field = DATASET_FIELDS["supernova"]
    full = field_on_grid(field, (16, 16, 16))
    part = field_on_grid(field, (16, 16, 16), lo=(4, 2, 8), hi=(12, 10, 16))
    assert np.array_equal(part, full[4:12, 2:10, 8:16])


def test_field_on_grid_validation():
    field = DATASET_FIELDS["skull"]
    with pytest.raises(ValueError):
        field_on_grid(field, (0, 4, 4))
    with pytest.raises(ValueError):
        field_on_grid(field, (4, 4, 4), lo=(2, 0, 0), hi=(2, 4, 4))


@pytest.mark.parametrize("name", sorted(DATASET_FIELDS))
def test_datasets_in_unit_range_and_deterministic(name):
    v1 = make_dataset(name, (24, 24, 24))
    v2 = make_dataset(name, (24, 24, 24))
    assert v1.data.min() >= 0.0 and v1.data.max() <= 1.0
    assert np.array_equal(v1.data, v2.data)
    assert v1.name == name


@pytest.mark.parametrize("name", sorted(DATASET_FIELDS))
def test_datasets_nonempty_and_not_full(name):
    """Each dataset must have both structure and empty space."""
    v = make_dataset(name, (32, 32, 32))
    occ = np.count_nonzero(v.data > 0.05) / v.data.size
    assert 0.005 < occ < 0.9, f"{name} occupancy {occ}"


def test_skull_mostly_empty():
    v = make_dataset("skull", (48, 48, 48))
    occ = np.count_nonzero(v.data > 0.1) / v.data.size
    assert occ < 0.5


def test_unknown_dataset_rejected():
    with pytest.raises(ValueError, match="unknown dataset"):
        make_dataset("teapot", (8, 8, 8))


def test_paper_resolutions_table():
    assert (1024, 1024, 1024) in PAPER_RESOLUTIONS["skull"]
    assert PAPER_RESOLUTIONS["plume"] == [(512, 512, 2048)]


def test_plume_anisotropic_structure():
    """The plume rises along z: upper half must contain more mass."""
    v = make_dataset("plume", (16, 16, 64))
    lower = v.data[:, :, :32].sum()
    upper = v.data[:, :, 32:].sum()
    assert upper > lower
