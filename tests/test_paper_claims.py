"""The paper's claims, checked on the simulated Accelerator Cluster.

Every figure, table and ablation the paper reports is regenerated here
at paper scale and checked for its *qualitative shape*: who wins, where
the sweet spot and the crossover fall, which regime is faster.  Absolute
seconds are simulated, not measured on 2010 hardware; their exact
values are pinned separately in ``test_paper_figures.py``.

The ``test_claim_*`` tests are the sentences a reader would quote from
the paper.  Where a figure's check is one of those sentences, it is
asserted once, in the claim test, on the same figure grid.  The
experiments live in :mod:`repro.sim.figures`; ``repro figure NAME``
prints the pinned entries.
"""

from collections import defaultdict

import pytest

from repro.core import JobConfig
from repro.perfmodel import CommComputeSplit, find_crossover, find_sweet_spot
from repro.pipeline import MapReduceVolumeRenderer, orbit_path
from repro.pipeline.workload import simulate_sequence
from repro.render import RenderConfig, default_tf
from repro.sim.figures import (
    ablation_combiner,
    ablation_compositing,
    ablation_future_work,
    ablation_partitioners,
    ablation_reduce_device,
    ablation_sort_device,
    exec_vs_sim_validation,
    fig3_breakdown,
    fig4_scaling,
    micro_transfer_costs,
    paraview_reference,
    sec63_bottleneck,
    sim_render,
)
from repro.volume import BrickGrid, grid_occupancy
from repro.volume.datasets import DATASET_FIELDS, skull_field


def _by_volume(rows):
    grid = defaultdict(dict)
    for r in rows:
        grid[r["volume"]][r["n_gpus"]] = r
    return grid


@pytest.fixture(scope="module")
def fig3():
    """Fig. 3 rows as ``{volume: {n_gpus: row}}`` (128³–1024³, 1–32 GPUs)."""
    return _by_volume(fig3_breakdown())


@pytest.fixture(scope="module")
def fig4():
    """Fig. 4 rows as ``{volume: {n_gpus: row}}``."""
    return _by_volume(fig4_scaling())


@pytest.fixture(scope="module")
def sec63():
    """§6.3 rows for 1024³ as ``{n_gpus: row}``."""
    return {r["n_gpus"]: r for r in sec63_bottleneck()}


@pytest.fixture(scope="module")
def paraview():
    """Footnote-1 rows: ours at 16 GPUs, the ParaView model, the report."""
    return paraview_reference()


def _totals(fig3, volume):
    return {n: r["total_s"] for n, r in fig3[volume].items()}


# -- the quoted claims ---------------------------------------------------------
def test_claim_1024_under_one_second_on_8_gpus(fig3):
    """Abstract: 'capable of rendering a 1024^3 floating-point sampled
    volume in under one second using 8 GPUs'."""
    assert fig3["1024^3"][8]["total_s"] < 1.0


def test_claim_interactive_rates(fig4):
    """Abstract: 'rendering speeds are adequate for interactive
    visualization' — the small volume exceeds 2 FPS at its best."""
    assert max(r["fps"] for r in fig4["128^3"].values()) > 2.0


def test_claim_sweet_spot_8_gpus(fig3):
    """Fig. 3: 'the best runtime configuration is 8 GPUs ... with more
    than 8 GPUs, there is too much communication'."""
    for volume, expected in [
        ("128^3", {8, 16}),
        ("256^3", {8, 16}),
        ("512^3", {8, 16, 32}),
    ]:
        totals = _totals(fig3, volume)
        assert find_sweet_spot(totals) in expected, f"{volume}: {totals}"
    totals_128 = _totals(fig3, "128^3")
    assert totals_128[32] > totals_128[8]


def test_claim_1024_scales_past_8(fig3):
    """Fig. 3: 'the additional communication with 32 GPUs over 16 GPUs
    is outweighed by the saving in compute time' for 1024^3."""
    totals = _totals(fig3, "1024^3")
    assert totals[32] < totals[16] < totals[8]
    assert find_sweet_spot(totals) == 32


def test_claim_double_paraview_at_16_gpus(paraview):
    """Footnote 1: 'Using 16 GPUs on 4 nodes, we achieve more than
    double [ParaView's 346M VPS]'."""
    ours = next(r for r in paraview if "MapReduce" in r["system"])
    assert ours["vs_paraview"] > 2.0, ours


def test_claim_scales_with_volume_size(fig4):
    """Abstract: 'our system scales with respect to the size of the
    volume' — at every GPU count, larger volumes sustain higher VPS."""
    for n in (2, 8, 32):
        series = [fig4[f"{s}^3"][n]["mvps"] for s in (128, 256, 512, 1024)]
        assert all(a < b for a, b in zip(series, series[1:])), f"n={n}: {series}"


def test_claim_computation_no_longer_bottleneck(fig3, sec63):
    """§6.3: 'fitting parallel volume rendering into a multi-GPU
    MapReduce model severely reduces computation as a bottleneck' — at
    32 GPUs the map compute is a small fraction of a single GPU's."""
    r32 = fig3["512^3"][32]
    assert r32["map_s"] < fig3["512^3"][1]["map_s"] / 8
    # and communication (partition+io) now exceeds compute there, as it
    # does for the small volume.
    assert r32["partition_io_s"] > r32["map_s"]
    r = fig3["128^3"][32]
    assert r["partition_io_s"] > r["map_s"]
    # For 1024³, compute at 16 GPUs is no longer the bottleneck.
    assert not sec63[16]["compute_bound"]


# -- Fig. 3 and Fig. 4 ----------------------------------------------------------
def test_fig3_stage_breakdown(fig3):
    """Fig. 3: ray-cast (Map) time scales down with GPU count, and
    communication grows with it.  The sweet spots and the 1024³ headline
    are the claim tests above."""
    for volume, per_n in fig3.items():
        ns = sorted(per_n)
        maps = [per_n[n]["map_s"] for n in ns]
        assert all(a > b for a, b in zip(maps, maps[1:])), f"{volume}: map not shrinking"
        assert per_n[32]["partition_io_s"] > per_n[ns[0]]["partition_io_s"], volume


def test_fig4_fps(fig4):
    """Fig. 4 (left): larger volumes are slower at equal GPU counts; FPS
    improves with GPUs until the sweet spot.  The small volume's best
    rate is ``test_claim_interactive_rates``."""
    for n in (2, 8, 32):
        fps_by_size = [fig4[f"{s}^3"][n]["fps"] for s in (128, 256, 512, 1024)]
        assert all(a >= b for a, b in zip(fps_by_size, fps_by_size[1:])), n

    for volume, per_n in fig4.items():
        ns = sorted(per_n)
        assert max(per_n[n]["fps"] for n in ns) > per_n[ns[0]]["fps"] * 1.5, volume

    # Parallel efficiency decays with GPU count (never superlinear).
    for volume, per_n in fig4.items():
        for n, r in per_n.items():
            assert r["efficiency"] <= 1.05, (volume, n)


def test_fig4_vps(fig4):
    """Fig. 4 (right): the 1024³ volume reaches the highest rate at 32
    GPUs — the paper shows ~1400 MVPS there.  VPS growing with volume
    size is ``test_claim_scales_with_volume_size``."""
    best = max(
        (r["mvps"], vol, n) for vol, per in fig4.items() for n, r in per.items()
    )
    assert best[1] == "1024^3" and best[2] == 32
    # …and lies within a small factor of the paper's ~1400 MVPS.
    assert 700 <= best[0] <= 5600, best

    # VPS of 1024³ grows monotonically with GPUs (Fig. 4's rising line).
    series_1024 = [fig4["1024^3"][n]["mvps"] for n in sorted(fig4["1024^3"])]
    assert all(a < b for a, b in zip(series_1024, series_1024[1:]))


# -- §6.3, footnote 1 and the §3 micro-costs -------------------------------------
def test_sec63_compute_vs_communication(sec63):
    """§6.3, 1024³: at 8 GPUs ~515 ms communication vs ~503 ms
    computation; compute shrinks ~n, communication does not, and the
    crossover falls in the 4–16 GPU band.  Compute at 16 GPUs no longer
    being the bottleneck is ``test_claim_computation_no_longer_bottleneck``."""
    # Computation scales down with GPU count (not perfectly — brick depth
    # imbalance costs some efficiency, as on the real machine)…
    assert sec63[8]["compute_s"] < sec63[2]["compute_s"] / 2.2
    assert sec63[32]["compute_s"] < sec63[8]["compute_s"] / 2.2
    # …communication does not (it is roughly flat or rising).
    assert sec63[32]["communication_s"] > 0.5 * sec63[8]["communication_s"]

    splits = [
        CommComputeSplit(n, r["compute_s"], r["communication_s"])
        for n, r in sorted(sec63.items())
    ]
    cross = find_crossover(splits)
    assert cross is not None and 4 <= cross <= 16, cross

    # At 8 GPUs the two are within a factor ~3 of balanced.
    ratio8 = sec63[8]["comm_over_compute"]
    assert 1 / 3 <= ratio8 <= 3, ratio8


def test_paraview_footnote(paraview):
    """Footnote 1: the CPU-cluster model reproduces ParaView's published
    346M VPS at 512 processes within 2x.  Our 16 GPUs beating it by more
    than 2x is ``test_claim_double_paraview_at_16_gpus``."""
    model = next(r for r in paraview if "model" in r["system"])
    assert 0.5 <= model["vs_paraview"] <= 2.0, model


def test_micro_transfer_costs():
    """§3: 'Loading a 64³ block from disk takes approximately 20 ms …
    Transferring that brick to the GPU takes less than 0.2 ms … final
    ray fragments from the GPU to the CPU … less than 2 ms.'"""
    by_op = {r["operation"]: r for r in micro_transfer_costs()}
    disk = by_op["disk read 64^3 brick"]
    assert 15.0 <= disk["model_ms"] <= 25.0  # ≈ 20 ms
    pcie = by_op["PCIe H2D 64^3 brick"]
    assert pcie["model_ms"] < 0.2  # < 0.2 ms
    d2h = by_op["D2H 512^2 fragments"]
    assert d2h["model_ms"] < 2.0  # < 2 ms
    # Disk is ~2 orders of magnitude above PCIe — the paper's "<1% overhead".
    assert disk["model_ms"] / pcie["model_ms"] > 100


# -- the three datasets, residency and the functional cross-check ----------------
def test_three_datasets():
    """Fig. 2 / §5: skull, supernova and plume differ in occupancy,
    which drives fragment traffic."""
    tf = default_tf()
    by = {}
    for name in ("skull", "supernova", "plume"):
        shape = (512, 512, 2048) if name == "plume" else (256, 256, 256)
        res = sim_render(shape, 8, name)
        grid = BrickGrid(shape, tuple(max(s // 4, 8) for s in shape))
        occ = grid_occupancy(
            grid, tf.opacity_threshold_value(), field=DATASET_FIELDS[name]
        )
        by[name] = {
            "mean_occupancy": float(occ.mean()),
            "fragments": int(res.pairs_per_reducer.sum()),
            "total_s": res.total_runtime,
        }
    # Every dataset renders; occupancy varies across them…
    occs = [r["mean_occupancy"] for r in by.values()]
    assert max(occs) > 1.5 * min(occs)
    # …and the denser dataset ships at least as many fragments as the
    # sparser one at the same resolution.
    dense, sparse = (
        ("supernova", "skull")
        if by["supernova"]["mean_occupancy"] >= by["skull"]["mean_occupancy"]
        else ("skull", "supernova")
    )
    assert by[dense]["fragments"] >= by[sparse]["fragments"]
    # Plume's tall 512x512x2048 volume (paper §5) runs through the same
    # pipeline despite the 4:1 aspect.
    assert by["plume"]["total_s"] > 0


def test_in_core_vs_out_of_core():
    """§6: 'If enough GPUs are available to fit the bricked volume
    entirely in core, the speed benefits are obvious.  But if not, the
    speed of the rendering is still quite good.'  An interactive orbit
    of 256³ on 8 GPUs in three regimes."""
    shape = (256, 256, 256)
    cams = orbit_path(shape, 4, width=512, height=512)
    regimes = {}
    for label, resident, include_disk in [
        ("in-core", True, False),
        ("ram", False, False),
        ("disk", False, True),
    ]:
        r = MapReduceVolumeRenderer(
            volume=None,
            volume_shape=shape,
            field=skull_field,
            cluster=8,
            tf=default_tf(),
            render_config=RenderConfig(dt=1.0),
        )
        results = simulate_sequence(
            r, cams, job_config=JobConfig(include_disk=include_disk),
            out_of_core=include_disk, resident=resident,
        )
        steady = [res.total_runtime for res in results[1:]]  # skip warm-up frame
        regimes[label] = {
            "first_frame_s": results[0].total_runtime,
            "steady_frame_s": sum(steady) / len(steady),
            "steady_fps": len(steady) / sum(steady),
        }
    in_core, ram, disk = regimes["in-core"], regimes["ram"], regimes["disk"]

    # Residency beats streaming once warm…
    assert in_core["steady_frame_s"] < ram["steady_frame_s"]
    # …while both regimes pay the same first frame (cold uploads).
    assert in_core["first_frame_s"] == pytest.approx(ram["first_frame_s"], rel=0.05)
    # Disk-bound streaming is far slower than RAM streaming (the paper's
    # out-of-core case is 'still quite good' only with data in memory).
    assert disk["steady_frame_s"] > 3 * ram["steady_frame_s"]
    # And the in-core regime is interactive-ish at this size.
    assert in_core["steady_fps"] > 2.0


def test_exec_vs_sim_agreement():
    """The figures trust the analytic workload model: a small volume run
    both functionally and analytically agrees on fragment traffic (the
    quantity every communication cost scales with) within a modest
    factor."""
    result = exec_vs_sim_validation()
    assert result["exec_fragments"] > 0
    assert 0.4 <= result["ratio"] <= 2.5, result


# -- the ablations -----------------------------------------------------------------
def test_partitioner_ablation():
    """§3.1.1: per-pixel round-robin is 'empirically, the highest-
    performing method' of distribution, against striped and tiled."""
    by_name = {r["partitioner"]: r for r in ablation_partitioners()}
    rr = by_name["round-robin (paper)"]
    striped = by_name["striped/block"]
    # Round-robin balances reducer load nearly perfectly…
    assert rr["load_imbalance"] < 1.2, rr
    # …while contiguous stripes skew badly (the image footprint is uneven).
    assert striped["load_imbalance"] > rr["load_imbalance"] * 1.3, striped
    # And round-robin's runtime is at least as good as any alternative.
    best = min(r["total_s"] for r in by_name.values())
    assert rr["total_s"] <= best * 1.05


def test_compositing_ablation():
    """§6: 'We chose direct-send compositing because it allows an
    overlap of communication and computation' — against binary swap,
    whose strength is bounded per-node traffic."""
    rows = ablation_compositing()
    # On the paper's machine sizes direct-send wins or ties in the
    # majority of configurations — that is why they chose it.
    wins = sum(1 for r in rows if r["direct_wins"])
    assert wins >= len(rows) // 2, f"direct-send won only {wins}/{len(rows)}"
    # Binary swap's cost is nearly flat in GPU count (its selling point).
    v256 = [r for r in rows if r["volume"] == "256^3"]
    swap_small = next(r for r in v256 if r["n_gpus"] == 4)["binary_swap_s"]
    swap_big = next(r for r in v256 if r["n_gpus"] == 32)["binary_swap_s"]
    assert swap_big < swap_small * 3


def test_sort_device_ablation():
    """§3.1.2: 'a specialized counting sort on the CPU or GPU (depending
    on the amount of data)'."""
    rows = ablation_sort_device()

    def sort_s(device, image):
        return next(
            r for r in rows if r["sort_on"] == device and r["image"] == image
        )["sort_s"]

    # At small fragment counts the CPU sort wins (no PCIe round trip).
    assert sort_s("cpu", "256^2") < sort_s("gpu", "256^2")
    # The GPU's relative cost at 1024^2 versus 256^2 rises far slower
    # than the CPU's.
    cpu_growth = sort_s("cpu", "1024^2") / sort_s("cpu", "256^2")
    gpu_growth = sort_s("gpu", "1024^2") / sort_s("gpu", "256^2")
    assert gpu_growth < cpu_growth


def test_reduce_device_ablation():
    """§3.1.2: 'it is actually quicker to do the compositing on the
    CPU' — CPU reduce is at least competitive at the evaluation's
    fragment counts."""
    by_dev = {r["reduce_on"]: r for r in ablation_reduce_device()}
    assert by_dev["cpu"]["total_s"] <= by_dev["gpu"]["total_s"] * 1.10, by_dev


def test_future_work_tradeoffs():
    """§7: asynchronous uploads with manual filtering, and 0-copy
    fragment memory ('orders of magnitude slower than GPU VRAM'), on 8
    GPUs."""
    rows = ablation_future_work()

    def total(volume, mode_prefix):
        return next(
            r["total_s"]
            for r in rows
            if r["volume"] == volume and r["mode"].startswith(mode_prefix)
        )

    # Async upload wins when texture-setup stalls dominate (small volume)…
    assert total("64^3", "async") < total("64^3", "baseline")
    # …and loses when the kernel dominates (1024³): the 1.6x manual-
    # filtering penalty outweighs the hidden upload.
    assert total("1024^3", "async") > total("1024^3", "baseline")
    # 0-copy is never a clear win at these fragment volumes.
    assert total("64^3", "zero-copy") > 0.95 * total("64^3", "baseline")
    assert total("1024^3", "zero-copy") >= total("1024^3", "baseline") * 0.98


def test_combiner_merges_nothing():
    """§3.1: 'We specifically omitted partial reduce/combine because it
    didn't increase performance' — within one brick each pixel emits at
    most one fragment, so a per-chunk combiner has nothing to merge."""
    rows = ablation_combiner()
    with_combiner = next(r for r in rows if r["combiner"])
    without = next(r for r in rows if not r["combiner"])
    assert with_combiner["pairs_merged_by_combiner"] == 0
    # …so the shuffle volume is identical with and without it.
    assert with_combiner["pairs_shuffled"] == without["pairs_shuffled"]
