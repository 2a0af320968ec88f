"""The fused reduce: one Sort and one Reduce over every partition a
process owns gives, byte for byte, what sorting and reducing each
partition on its own gave — whichever way the partitions are grouped
into processes.

The oracle is the partition-at-a-time loop :func:`merge_partition_runs`
used to run, with the reducer that composited in ``np.lexsort`` order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KVSpec, counting_sort_pairs, run_length_groups
from repro.core.executors import PartitionReduceSpec, merge_partition_runs
from repro.pipeline import MIP_DTYPE, CompositeReducer, MaxReducer
from repro.render.compositing import fold_depth_runs
from repro.render.fragments import FRAGMENT_DTYPE, make_fragments

SPECIAL_DEPTHS = np.array(
    [0.0, -0.0, 1e-45, -1e-45, 1e-39, -3.5, 3.5, np.inf, -np.inf], np.float32
)
BACKGROUND = (0.25, 0.5, 0.75)


class LexsortCompositeReducer(CompositeReducer):
    """The composite as it was: ``np.lexsort`` order, stacked colour."""

    def reduce_all(self, pairs):
        if len(pairs) == 0:
            return np.empty(0, np.int64), np.zeros((0, 4), np.float32)
        f = pairs[np.lexsort((pairs["depth"], pairs["pixel"]))]
        keys, starts, _ = run_length_groups(f["pixel"])
        rgba = np.stack([f["r"], f["g"], f["b"], f["a"]], axis=1)
        out = fold_depth_runs(rgba, starts)
        if self.background is not None:
            alpha = out[:, 3:4]
            out = out.copy()
            out[:, :3] += (1.0 - alpha) * self.background[None, :]
            out[:, 3] = 1.0
        return keys, out


REDUCERS = {
    "composite": (FRAGMENT_DTYPE, CompositeReducer, LexsortCompositeReducer),
    "composite-bg": (
        FRAGMENT_DTYPE,
        lambda: CompositeReducer(BACKGROUND),
        lambda: LexsortCompositeReducer(BACKGROUND),
    ),
    "max": (MIP_DTYPE, MaxReducer, MaxReducer),
}


def _pairs(rng, dtype, keys):
    n = len(keys)
    depth = np.where(
        rng.random(n) < 0.5,
        rng.choice(SPECIAL_DEPTHS, n),
        rng.choice(np.float32([1.0, 2.0, 3.0]), n),  # equal depths meet
    ).astype(np.float32)
    if dtype == MIP_DTYPE:
        pairs = np.empty(n, MIP_DTYPE)
        pairs["pixel"] = keys
        pairs["value"] = np.where(rng.random(n) < 0.3, -0.0, depth)
        return pairs
    alpha = rng.choice(np.float32([0.0, 0.25, 1.0, 0.7]), n)
    rgb = rng.random((n, 3)).astype(np.float32) * alpha[:, None]
    return make_fragments(keys, depth, np.column_stack([rgb, alpha]))


def _frame_runs(rng, dtype, n_reducers, max_key):
    """Random chunk-ordered runs: hot keys, partitions with no keys at
    all, empty and missing (None) runs, and missing chunks."""
    # up to two partitions own no key at all
    drop = rng.choice(n_reducers, min(2, n_reducers - 1), replace=False)
    owner = rng.choice(np.setdiff1d(np.arange(n_reducers), drop), max_key + 1)
    hot = rng.integers(0, max_key + 1, 3)
    runs_per_chunk = []
    for _ in range(int(rng.integers(0, 6))):
        if rng.random() < 0.15:
            runs_per_chunk.append(None)
            continue
        n = int(rng.integers(0, 40))
        keys = np.where(
            rng.random(n) < 0.6,
            rng.choice(hot, n),
            rng.integers(0, max_key + 1, n),
        ).astype(np.int32)
        pairs = _pairs(rng, dtype, keys)
        runs = [pairs[owner[keys] == r] for r in range(n_reducers)]
        runs_per_chunk.append(
            [None if not len(run) and rng.random() < 0.5 else run for run in runs]
        )
    return runs_per_chunk


def _partition_at_a_time(spec, runs_per_chunk):
    """The oracle: Sort + Reduce one partition at a time."""
    outputs, received = [], np.zeros(spec.n_reducers, np.int64)
    for r in range(spec.n_reducers):
        parts = [
            runs[r]
            for runs in runs_per_chunk
            if runs is not None and runs[r] is not None and len(runs[r])
        ]
        pairs = np.concatenate(parts) if parts else np.empty(0, spec.kv.dtype)
        received[r] = len(pairs)
        sr = counting_sort_pairs(pairs, spec.kv.key_field, 0, spec.max_key)
        outputs.append(spec.reducer.reduce_all(sr.pairs))
    return outputs, received


def _split_reduce(spec, runs_per_chunk, n_workers):
    """What ``n_workers`` workers reduce, each owning ``p % n_workers``
    under its renumbered view, reassembled in job partition order."""
    outputs = [None] * spec.n_reducers
    received = np.zeros(spec.n_reducers, np.int64)
    for worker in range(n_workers):
        owned = list(range(worker, spec.n_reducers, n_workers))
        if not owned:
            continue
        view = PartitionReduceSpec(
            len(owned), spec.kv, spec.max_key, spec.reducer,
            partition_labels=owned, frame_seq=1,
        )
        mine = [
            None if runs is None else [runs[p] for p in owned]
            for runs in runs_per_chunk
        ]
        got, counts = merge_partition_runs(view, mine)
        assert len(got) == len(owned) and counts.dtype == np.int64
        for p, out, count in zip(owned, got, counts.tolist()):
            outputs[p] = out
            received[p] = count
    return outputs, received


def _assert_same_bytes(got, want):
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n_reducers=st.integers(1, 9),
    max_key=st.sampled_from([5, 300, 70_000]),
    reducer=st.sampled_from(sorted(REDUCERS)),
)
@settings(max_examples=120, deadline=None)
def test_any_grouping_of_partitions_reduces_to_the_same_bytes(
    seed, n_reducers, max_key, reducer
):
    dtype, fused, oracle = REDUCERS[reducer]
    rng = np.random.default_rng(seed)
    runs_per_chunk = _frame_runs(rng, dtype, n_reducers, max_key)
    spec = PartitionReduceSpec(n_reducers, KVSpec(dtype, "pixel"), max_key, oracle())
    want, want_received = _partition_at_a_time(spec, runs_per_chunk)
    spec.reducer = fused()
    for n_workers in (1, 2, 3):
        got, received = _split_reduce(spec, runs_per_chunk, n_workers)
        assert received.tolist() == want_received.tolist()
        for p in range(n_reducers):
            _assert_same_bytes(got[p], want[p])
    # and with no labels at all: the serial executor's own call
    got, received = merge_partition_runs(spec, runs_per_chunk)
    assert received.tolist() == want_received.tolist()
    for p in range(n_reducers):
        _assert_same_bytes(got[p], want[p])


def test_fused_reduce_rejects_an_out_of_range_key():
    spec = PartitionReduceSpec(2, KVSpec(MIP_DTYPE, "pixel"), 9, MaxReducer())
    pairs = np.zeros(3, MIP_DTYPE)
    pairs["pixel"] = [2, 10, 4]
    with pytest.raises(ValueError, match="outside"):
        merge_partition_runs(spec, [[pairs[[0, 2]], pairs[[1]]]])


def test_composite_reducer_rejects_nan_depths():
    """A NaN depth is the one value the radix and ``np.lexsort`` order
    differently; fragments can arrive from a peer, so it is refused —
    either sign, directly or through the fused reduce."""
    nan = np.float32(np.nan)
    for depth in (nan, -nan):
        pairs = make_fragments(
            np.int32([1, 1, 4]),
            np.float32([0.5, depth, 2.0]),
            np.full((3, 4), 0.5, np.float32),
        )
        with pytest.raises(ValueError, match="NaN"):
            CompositeReducer().reduce_all(pairs)
        spec = PartitionReduceSpec(
            1, KVSpec(FRAGMENT_DTYPE, "pixel"), 9, CompositeReducer()
        )
        with pytest.raises(ValueError, match="NaN"):
            merge_partition_runs(spec, [[pairs]])
