"""Tests for small stats helpers."""

from repro.core import JobStats


def test_jobstats_dict_and_discard_fraction():
    st = JobStats()
    st.add_map({"n_rays": 100, "n_samples": 1000}, emitted=100, kept=75)
    assert (st.n_pairs_emitted, st.n_pairs_kept) == (100, 75)  # a quarter discarded
    d = st.as_dict()
    assert d["n_chunks"] == 1 and d["n_rays"] == 100
    assert set(d) == {
        "n_chunks", "n_rays", "n_samples", "n_pairs_emitted", "n_pairs_kept"
    }
    empty = JobStats()
    assert (empty.n_pairs_emitted, empty.n_pairs_kept) == (0, 0)
