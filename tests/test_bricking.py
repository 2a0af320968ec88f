"""Tests for brick decomposition, including the exact-cover property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.volume import BrickGrid, bricks_for_gpu_count, make_dataset


def test_grid_counts_and_len():
    g = BrickGrid((64, 64, 64), 32)
    assert g.counts == (2, 2, 2)
    assert len(g) == 8


def test_uneven_division_covers_remainder():
    g = BrickGrid((65, 64, 30), 32)
    assert g.counts == (3, 2, 1)
    last = g.brick_at(2, 0, 0)
    assert last.lo[0] == 64 and last.hi[0] == 65


def test_brick_linear_ids_roundtrip():
    g = BrickGrid((64, 96, 32), (32, 32, 16))
    for i, b in enumerate(g):
        assert b.id == i
        assert g.brick(i).index == b.index
        assert g.brick_index(i) == b.index


def test_brick_out_of_range():
    g = BrickGrid((32, 32, 32), 16)
    with pytest.raises(IndexError):
        g.brick(len(g))
    with pytest.raises(IndexError):
        g.brick_at(2, 0, 0)


def test_validation():
    with pytest.raises(ValueError):
        BrickGrid((0, 4, 4), 2)
    with pytest.raises(ValueError):
        BrickGrid((4, 4, 4), 0)
    with pytest.raises(ValueError):
        BrickGrid((4, 4, 4), 2, ghost=-1)


@given(
    shape=st.tuples(
        st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)
    ),
    brick=st.tuples(st.integers(1, 16), st.integers(1, 16), st.integers(1, 16)),
)
@settings(max_examples=60, deadline=None)
def test_cores_exactly_cover_volume(shape, brick):
    """Every voxel belongs to exactly one brick core (hypothesis)."""
    g = BrickGrid(shape, brick)
    cover = np.zeros(shape, dtype=np.int32)
    for b in g:
        cover[b.lo[0] : b.hi[0], b.lo[1] : b.hi[1], b.lo[2] : b.hi[2]] += 1
    assert np.all(cover == 1)


@given(
    shape=st.tuples(st.integers(4, 32), st.integers(4, 32), st.integers(4, 32)),
    brick=st.integers(2, 12),
    ghost=st.integers(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_ghost_shell_clamped_at_boundaries(shape, brick, ghost):
    g = BrickGrid(shape, brick, ghost=ghost)
    for b in g:
        for a in range(3):
            assert b.data_lo[a] == max(b.lo[a] - ghost, 0)
            assert b.data_hi[a] == min(b.hi[a] + ghost, shape[a])
            assert 0 <= b.data_lo[a] <= b.lo[a]
            assert b.hi[a] <= b.data_hi[a] <= shape[a]


def test_extract_matches_region():
    v = make_dataset("supernova", (20, 20, 20))
    g = BrickGrid(v.shape, 8, ghost=1)
    b = g.brick_at(1, 1, 1)
    payload = g.extract(v, b)
    assert payload.shape == b.data_shape
    assert np.array_equal(payload, v.data[7:17, 7:17, 7:17])


def test_extract_shape_mismatch():
    v = make_dataset("skull", (16, 16, 16))
    g = BrickGrid((32, 32, 32), 16)
    with pytest.raises(ValueError):
        g.extract(v, g.brick(0))


def test_nbytes_and_payload_total():
    g = BrickGrid((32, 32, 32), 16, ghost=1)
    b = g.brick_at(0, 0, 0)
    assert b.data_shape == (17, 17, 17)
    assert b.nbytes == 17**3 * 4
    assert sum(b.nbytes for b in g) > 32**3 * 4  # ghost overlap costs bytes
    # Every brick of a 2x2x2 grid touches the boundary: 16 core + 1 ghost.
    assert g.max_brick_nbytes() == 17**3 * 4
    interior = BrickGrid((48, 48, 48), 16, ghost=1)
    assert interior.max_brick_nbytes() == 18**3 * 4  # interior brick: 2 ghosts


@given(
    shape=st.tuples(*[st.integers(1, 40)] * 3),
    brick=st.tuples(*[st.integers(1, 40)] * 3),
    ghost=st.integers(0, 5),
)
@settings(max_examples=100, deadline=None)
def test_max_brick_nbytes_equals_the_largest_built_brick(shape, brick, ghost):
    """Ghosts wider than a brick and bricks wider than the volume too."""
    g = BrickGrid(shape, brick, ghost=ghost)
    assert g.max_brick_nbytes() == max(b.nbytes for b in g)


@pytest.mark.parametrize("n_gpus,per_gpu", [(1, 1), (2, 2), (8, 2), (32, 4)])
def test_bricks_for_gpu_count_hits_target_band(n_gpus, per_gpu):
    g = bricks_for_gpu_count((256, 256, 256), n_gpus, per_gpu)
    target = n_gpus * per_gpu
    assert target <= len(g) <= 8 * target  # paper: within a small factor


def test_bricks_for_gpu_count_respects_min_brick():
    g = bricks_for_gpu_count((32, 32, 32), 1000, 4, min_brick=16)
    # 32^3 can only be split once per axis at min_brick=16.
    assert len(g) <= 8


def test_bricks_for_gpu_count_validation():
    with pytest.raises(ValueError):
        bricks_for_gpu_count((64, 64, 64), 0)
