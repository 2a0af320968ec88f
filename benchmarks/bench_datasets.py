"""DATASETS — the paper's three test volumes (Fig. 2 / §5).

Skull, Supernova, and Plume differ in occupancy structure, which drives
fragment traffic ("ray fragments with no contributions are discarded")
and hence communication.  The bench renders all three at the same size
and checks the occupancy-ordering shows up in the shuffle volume.
"""

from repro.bench import format_table, sim_render
from repro.render import default_tf
from repro.volume import BrickGrid, grid_occupancy
from repro.volume.datasets import DATASET_FIELDS


def run_datasets():
    rows = []
    tf = default_tf()
    for name in ("skull", "supernova", "plume"):
        shape = (512, 512, 2048) if name == "plume" else (256, 256, 256)
        res = sim_render(shape, 8, name)
        grid = BrickGrid(shape, tuple(max(s // 4, 8) for s in shape))
        occ = grid_occupancy(
            grid, tf.opacity_threshold_value(), field=DATASET_FIELDS[name]
        )
        rows.append(
            {
                "dataset": name,
                "resolution": "x".join(str(s) for s in shape),
                "mean_occupancy": float(occ.mean()),
                "fragments": int(res.pairs_per_reducer.sum()),
                "total_s": res.total_runtime,
            }
        )
    return rows


def test_three_datasets(run_once):
    rows = run_once(run_datasets)
    print()
    print(format_table(rows, title="The paper's three datasets, 8 GPUs"))
    by = {r["dataset"]: r for r in rows}
    # Every dataset renders; occupancy varies across them…
    occs = [r["mean_occupancy"] for r in rows]
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
