"""Tests for figures of merit and the §6.3 analysis."""

import numpy as np
import pytest

from repro.core import MapWork
from repro.perfmodel import (
    CommComputeSplit,
    ScalingPoint,
    compute_vs_communication,
    find_crossover,
    find_sweet_spot,
    fps,
    parallel_efficiency,
    scaling_series,
    speedup,
    voxels_per_second,
)
from repro.sim import accelerator_cluster


def test_fps_vps_basic():
    assert fps(0.5) == 2.0
    assert voxels_per_second(128**3, 0.5) == 128**3 * 2
    with pytest.raises(ValueError):
        fps(0.0)
    with pytest.raises(ValueError):
        voxels_per_second(-1, 1.0)
    with pytest.raises(ValueError):
        voxels_per_second(10, 0.0)


def test_speedup_and_efficiency():
    assert speedup(4.0, 1.0) == 4.0
    assert parallel_efficiency(4.0, 1.0, 4) == pytest.approx(1.0)
    assert parallel_efficiency(4.0, 2.0, 4) == pytest.approx(0.5)
    assert parallel_efficiency(4.0, 1.0, 8, n_base=2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        parallel_efficiency(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        speedup(0.0, 1.0)


def test_scaling_point_and_series():
    pts = [
        ScalingPoint(1, 4.0, 128**3),
        ScalingPoint(4, 1.0, 128**3),
        ScalingPoint(2, 2.0, 128**3),
    ]
    series = scaling_series(pts)
    assert [s["n_gpus"] for s in series] == [1, 2, 4]
    assert series[-1]["speedup"] == pytest.approx(4.0)
    assert series[-1]["efficiency"] == pytest.approx(1.0)
    assert series[0]["mvps"] == pytest.approx(128**3 / 4.0 / 1e6)
    assert scaling_series([]) == []


def make_works(n_gpus, n_chunks=8, samples=5_000_000, pairs=40_000):
    works = []
    for i in range(n_chunks):
        works.append(
            MapWork(
                chunk_id=i,
                gpu=i % n_gpus,
                upload_bytes=32 << 20,
                n_rays=512 * 512 // n_chunks,
                n_samples=samples,
                pairs_emitted=pairs,
                pairs_to_reducer=np.full(n_gpus, pairs // (2 * n_gpus), dtype=np.int64),
            )
        )
    return works


def test_compute_vs_communication_scales():
    """More GPUs → less compute, not-less communication (§6.3's trend)."""
    splits = []
    for n in (2, 8, 32):
        spec = accelerator_cluster(n)
        splits.append(compute_vs_communication(spec, make_works(n, n_chunks=2 * n), 24))
    assert splits[0].compute_seconds > splits[1].compute_seconds > splits[2].compute_seconds


def test_find_crossover():
    splits = [
        CommComputeSplit(2, compute_seconds=1.0, communication_seconds=0.2),
        CommComputeSplit(8, compute_seconds=0.25, communication_seconds=0.3),
        CommComputeSplit(32, compute_seconds=0.06, communication_seconds=0.5),
    ]
    assert find_crossover(splits) == 8
    all_compute = [CommComputeSplit(2, 1.0, 0.1), CommComputeSplit(4, 0.5, 0.2)]
    assert find_crossover(all_compute) is None


def test_find_sweet_spot():
    assert find_sweet_spot({1: 3.0, 2: 1.5, 8: 0.9, 16: 1.2}) == 8
    assert find_sweet_spot({4: 1.0, 8: 1.0}) == 4  # tie → fewer GPUs
    with pytest.raises(ValueError):
        find_sweet_spot({})


def test_comm_compute_split_properties():
    s = CommComputeSplit(8, 0.5, 0.515)
    assert not s.compute_bound
    assert s.ratio == pytest.approx(1.03)
    z = CommComputeSplit(8, 0.0, 1.0)
    assert z.ratio == float("inf")
