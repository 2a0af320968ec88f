"""Tests for the ParaView-like CPU cluster and the binary-swap cost model."""

import pytest

from repro.baselines import (
    PARAVIEW_REPORTED_VPS,
    binary_swap_time,
    run_cpu_cluster_baseline,
)
from repro.sim import NetworkSpec


def test_cpu_cluster_baseline_matches_reported_rate():
    """512 simulated CPU procs should land near ParaView's 346M VPS on a
    large volume (the regime Moreland et al. measured)."""
    res = run_cpu_cluster_baseline((1024, 1024, 1024), n_procs=512)
    assert res.n_procs == 512
    assert PARAVIEW_REPORTED_VPS / 2 <= res.vps <= PARAVIEW_REPORTED_VPS * 2


def test_cpu_cluster_scales_with_procs_until_composite_floor():
    t64 = run_cpu_cluster_baseline((512,) * 3, n_procs=64)
    t256 = run_cpu_cluster_baseline((512,) * 3, n_procs=256)
    assert t256.runtime < t64.runtime
    assert t256.composite_seconds > t64.composite_seconds  # overhead grows


def test_cpu_cluster_validation_and_fields():
    res = run_cpu_cluster_baseline((128,) * 3, n_procs=1)
    assert res.composite_seconds == 0.0
    assert res.runtime == res.render_seconds
    with pytest.raises(ValueError):
        run_cpu_cluster_baseline((128,) * 3, n_procs=0)
    with pytest.raises(ValueError):
        run_cpu_cluster_baseline((128,) * 3, image_pixels=-1)


# -- binary swap ----------------------------------------------------------------
def test_binary_swap_time_model():
    net = NetworkSpec(bandwidth=4e9, latency=2e-6, message_overhead=4e-6)
    one = binary_swap_time(1, 512 * 512, net)
    assert one.total == 0.0
    four = binary_swap_time(4, 512 * 512, net)
    assert four.rounds == 2
    assert four.comm_seconds > 0 and four.composite_seconds > 0
    # Non-power-of-two pays ceil(log2) rounds.
    assert binary_swap_time(6, 512 * 512, net).rounds == 3
    with pytest.raises(ValueError):
        binary_swap_time(0, 100, net)
    with pytest.raises(ValueError):
        binary_swap_time(2, -1, net)


def test_binary_swap_comm_grows_slowly_with_nodes():
    """Swap total exchange per node is bounded (~1 image) regardless of n."""
    net = NetworkSpec()
    t4 = binary_swap_time(4, 512 * 512, net, gather=False)
    t32 = binary_swap_time(32, 512 * 512, net, gather=False)
    # 8x the participants costs well under 8x the exchange time (the
    # per-round volume halves; only per-round overheads accumulate).
    assert t32.comm_seconds < 3 * t4.comm_seconds
