"""Tests for report formatting, trace utilities, and small helpers."""

import numpy as np
import pytest

from repro.core import JobStats, MapWork
from repro.sim import ClusterRuntime, SimClusterExecutor, Trace, accelerator_cluster
from repro.sim import trace as T
from repro.sim.figures import format_table


# -- table formatting -------------------------------------------------------
def test_format_table_alignment_and_title():
    rows = [
        {"name": "map", "seconds": 0.12345},
        {"name": "reduce", "seconds": 12345.6},
    ]
    out = format_table(rows, title="Stages")
    lines = out.splitlines()
    assert lines[0] == "Stages"
    assert "name" in lines[1] and "seconds" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "0.1234" in out or "0.1235" in out
    assert "12,346" in out  # thousands separator for big floats


def test_format_table_empty_and_column_selection():
    assert "(no rows)" in format_table([])
    assert format_table([], title="T").startswith("T")
    rows = [{"a": 1, "b": 2}]
    out = format_table(rows, columns=["b"])
    assert "b" in out and "a" not in out


# -- trace utilities ---------------------------------------------------------
def test_trace_gantt_rows_sorted():
    tr = Trace()
    tr.record(T.CAT_KERNEL, "gpu1", 2.0, 3.0)
    tr.record(T.CAT_H2D, "gpu0", 0.0, 1.0)
    tr.record(T.CAT_NET, "node0->node1", 0.5, 2.5, nbytes=100)
    rows = tr.gantt_rows()
    assert rows[0][0] == "gpu0"
    assert [r[2] for r in rows] == sorted(r[2] for r in rows)
    assert tr.bytes_moved(T.CAT_NET) == 100


def test_trace_by_category():
    tr = Trace()
    tr.record(T.CAT_KERNEL, "gpu0", 0, 1)
    tr.record(T.CAT_KERNEL, "gpu1", 1, 2)
    tr.record(T.CAT_SORT, "node0", 2, 3)
    cats = tr.by_category()
    assert len(cats[T.CAT_KERNEL]) == 2
    assert len(cats[T.CAT_SORT]) == 1


# -- utilization report --------------------------------------------------------
def test_utilization_report_fresh_cluster_zero():
    rt = ClusterRuntime(accelerator_cluster(2))
    rep = rt.utilization_report()
    assert set(rep) == {"gpu_engines", "nic_tx", "nic_rx", "cpus", "disks"}
    assert all(v == 0.0 for v in rep.values())


def test_utilization_report_after_job():
    works = [
        MapWork(i, i % 4, 1 << 20, 4096, 2_000_000, 4000, np.full(4, 1000, np.int64))
        for i in range(8)
    ]
    _, cluster = SimClusterExecutor(accelerator_cluster(4)).execute(works, 24)
    rep = cluster.utilization_report()
    assert 0 < rep["gpu_engines"] <= 1.0
    assert 0 <= rep["cpus"] <= 1.0
    assert rep["disks"] == 0.0  # no disk reads charged


# -- small stats helpers --------------------------------------------------------
def test_jobstats_dict_and_discard_fraction():
    st = JobStats()
    st.add_map({"n_rays": 100, "n_samples": 1000}, emitted=100, kept=75)
    assert st.discard_fraction == pytest.approx(0.25)
    d = st.as_dict()
    assert d["n_chunks"] == 1 and d["n_rays"] == 100
    assert set(d) == {
        "n_chunks", "n_rays", "n_samples", "n_pairs_emitted", "n_pairs_kept"
    }
    empty = JobStats()
    assert empty.discard_fraction == 0.0
