"""Tests for key-value contracts, counting sort, partitioners, streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockPartitioner,
    CallablePartitioner,
    KVSpec,
    PLACEHOLDER,
    RoundRobinPartitioner,
    SendBuffer,
    TiledPartitioner,
    counting_sort_pairs,
    discard_placeholders,
    run_length_groups,
    split_message_sizes,
    stable_counting_order,
    validate_pairs,
)

KV = np.dtype([("key", np.int32), ("val", np.float32)])
SPEC = KVSpec(KV)


def make_pairs(keys, vals=None):
    keys = np.asarray(keys, np.int32)
    out = np.empty(len(keys), dtype=KV)
    out["key"] = keys
    out["val"] = np.arange(len(keys)) if vals is None else vals
    return out


# -- KVSpec ---------------------------------------------------------------
def test_kvspec_validation():
    with pytest.raises(ValueError):
        KVSpec(np.dtype(np.int32))  # not structured
    with pytest.raises(ValueError):
        KVSpec(np.dtype([("key", np.int64), ("v", np.float32)]))  # key not int32
    with pytest.raises(ValueError):
        KVSpec(KV, key_field="missing")


def test_kvspec_sizes():
    assert SPEC.pair_nbytes == 8
    assert SPEC.value_nbytes == 4
    assert len(SPEC.empty()) == 0


def test_discard_placeholders_and_validate():
    pairs = make_pairs([0, PLACEHOLDER, 3, PLACEHOLDER])
    kept = discard_placeholders(pairs, SPEC)
    assert kept["key"].tolist() == [0, 3]
    validate_pairs(pairs, SPEC, max_key=3)
    with pytest.raises(ValueError):
        validate_pairs(make_pairs([5]), SPEC, max_key=3)
    with pytest.raises(TypeError):
        validate_pairs(np.zeros(1, np.dtype([("key", np.int32)])), SPEC, 3)


# -- counting sort ------------------------------------------------------------
def test_counting_sort_basic():
    pairs = make_pairs([3, 1, 3, 0, 1], vals=[10, 20, 30, 40, 50])
    sr = counting_sort_pairs(pairs, "key", 0, 3)
    assert sr.pairs["key"].tolist() == [0, 1, 1, 3, 3]
    assert sr.unique_keys.tolist() == [0, 1, 3]
    assert sr.starts.tolist() == [0, 1, 3]
    assert sr.counts.tolist() == [1, 2, 2]
    assert sr.group(1)["val"].tolist() == [20, 50]  # stable: arrival order
    assert sr.n_groups == 3


def test_counting_sort_stability():
    pairs = make_pairs([2] * 100, vals=np.arange(100))
    sr = counting_sort_pairs(pairs, "key", 0, 10)
    assert np.array_equal(sr.pairs["val"], np.arange(100))


def test_counting_sort_empty_and_range_checks():
    sr = counting_sort_pairs(SPEC.empty(), "key", 0, 10)
    assert sr.n_groups == 0
    with pytest.raises(ValueError):
        counting_sort_pairs(make_pairs([5]), "key", 0, 3)
    with pytest.raises(ValueError):
        counting_sort_pairs(make_pairs([1]), "key", 2, 1)


@given(
    keys=st.lists(st.integers(0, 63), min_size=0, max_size=300),
)
@settings(max_examples=80, deadline=None)
def test_counting_sort_matches_stable_argsort(keys):
    pairs = make_pairs(keys)
    sr = counting_sort_pairs(pairs, "key", 0, 63)
    ref = pairs[np.argsort(pairs["key"], kind="stable")]
    assert np.array_equal(sr.pairs, ref)
    assert int(sr.counts.sum()) == len(keys)
    # Histogram agrees with bincount.
    assert np.array_equal(
        sr.counts, np.bincount(pairs["key"], minlength=64)[sr.unique_keys]
    )


def _histogram_counting_sort(pairs, key_field, min_key, max_key):
    """The histogram formulation the run-length index replaced, kept as
    the reference: slot histogram → present keys / prefix-sum starts."""
    keys = pairs[key_field].astype(np.int64)
    hist = np.bincount(keys - min_key, minlength=max_key - min_key + 1)
    present = np.nonzero(hist)[0]
    counts = hist[present]
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return (
        pairs[np.argsort(keys, kind="stable")],
        present + min_key,
        starts.astype(np.int64),
        counts.astype(np.int64),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 500),
    min_key=st.sampled_from([0, 7, -40]),
    span=st.sampled_from([1, 5, 64, 2**16, 2**16 + 3, 2**20]),
)
@settings(max_examples=80, deadline=None)
def test_counting_sort_matches_histogram_reference(seed, n, min_key, span):
    """Dense ranges (every slot hit many times), sparse ones (a few
    hundred pairs in a million slots) and the empty input all give the
    SortResult of the histogram formulation, dtypes included."""
    rng = np.random.default_rng(seed)
    pairs = make_pairs(rng.integers(min_key, min_key + span, n))
    sr = counting_sort_pairs(pairs, "key", min_key, min_key + span - 1)
    got = (sr.pairs, sr.unique_keys, sr.starts, sr.counts)
    if n == 0:
        ref = (pairs,) + (np.empty(0, np.int64),) * 3
    else:
        ref = _histogram_counting_sort(pairs, "key", min_key, min_key + span - 1)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and np.array_equal(g, r)


# -- the digit-wise radix order ------------------------------------------------
ORDER_SLOTS = [1, 37, 2**16, 2**16 + 1, 2**20, 2**31]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 400),
    n_slots=st.sampled_from(ORDER_SLOTS),
    dtype=st.sampled_from([np.int32, np.int64, np.uint32]),
    pool=st.integers(1, 12),
)
@settings(max_examples=200, deadline=None)
def test_stable_counting_order_matches_stable_argsort(seed, n, n_slots, dtype, pool):
    rng = np.random.default_rng(seed)
    # A small pool of values (range ends and digit boundaries included)
    # forces ties, and keys that share one digit and differ in the other.
    edges = [v for v in (0, 2**16 - 1, 2**16, n_slots - 1) if v < n_slots]
    values = np.r_[rng.integers(0, n_slots, pool), edges]
    keys = rng.choice(values, n).astype(dtype)
    got = stable_counting_order(keys, n_slots)
    assert np.array_equal(got, np.argsort(keys, kind="stable"))


@pytest.mark.parametrize("n_slots", ORDER_SLOTS)
@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
def test_stable_counting_order_rejects_keys_outside_the_slots(n_slots, dtype):
    """−1, ``n_slots`` and ``n_slots + 2**16`` — which a cast taken
    before the check would wrap into range — all raise."""
    info = np.iinfo(dtype)
    for bad in (-1, n_slots, n_slots + 2**16):
        if not info.min <= bad <= info.max:
            continue
        keys = np.array([0, bad, 0], dtype=dtype)
        with pytest.raises(ValueError, match="keys outside"):
            stable_counting_order(keys, n_slots)


def test_run_length_groups():
    u, s, c = run_length_groups(np.array([1, 1, 4, 4, 4, 9]))
    assert u.tolist() == [1, 4, 9]
    assert s.tolist() == [0, 2, 5]
    assert c.tolist() == [2, 3, 1]
    u, s, c = run_length_groups(np.array([]))
    assert len(u) == 0


# -- partitioners ------------------------------------------------------------
def test_round_robin_is_modulo():
    p = RoundRobinPartitioner(4)
    keys = np.arange(16)
    assert np.array_equal(p.partition(keys), keys % 4)


@given(n_red=st.integers(1, 16), n_keys=st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_round_robin_balance_within_one(n_red, n_keys):
    """Dense keys spread with max-min load <= 1 (the paper's rationale)."""
    p = RoundRobinPartitioner(n_red)
    if n_keys == 0:
        return
    dests = p.partition(np.arange(n_keys))
    loads = np.bincount(dests, minlength=n_red)
    assert loads.max() - loads.min() <= 1
    # owned_key_count agrees with the actual partition.
    for r in range(n_red):
        assert p.owned_key_count(r, n_keys) == loads[r]


def test_round_robin_local_index_roundtrip():
    p = RoundRobinPartitioner(3)
    keys = np.array([0, 1, 2, 3, 4, 5, 6, 7])
    local = p.local_index(keys)
    for r in range(3):
        mine = keys[p.partition(keys) == r]
        back = p.global_key(r, p.local_index(mine))
        assert np.array_equal(back, mine)


def test_block_partitioner_contiguous():
    p = BlockPartitioner(4, n_keys=100)
    dests = p.partition(np.arange(100))
    # Non-decreasing: contiguous stripes.
    assert np.all(np.diff(dests) >= 0)
    assert sum(p.owned_key_count(r, 100) for r in range(4)) == 100


def test_tiled_partitioner_covers_all_reducers():
    p = TiledPartitioner(4, width=64, height=64, tile=16)
    keys = np.arange(64 * 64)
    dests = p.partition(keys)
    assert set(np.unique(dests)) == {0, 1, 2, 3}
    # All pixels of one tile go to the same reducer.
    tile_keys = np.array([y * 64 + x for y in range(16) for x in range(16)])
    assert len(np.unique(p.partition(tile_keys))) == 1


def test_callable_partitioner_validation():
    p = CallablePartitioner(2, lambda k: k % 2)
    assert p.partition(np.array([0, 1, 2])).tolist() == [0, 1, 0]
    bad = CallablePartitioner(2, lambda k: k * 0 + 7)
    with pytest.raises(ValueError):
        bad.partition(np.array([0, 1]))


def test_partitioner_requires_reducers():
    with pytest.raises(ValueError):
        RoundRobinPartitioner(0)


# -- send buffer ----------------------------------------------------------------
def test_send_buffer_flushes_at_threshold():
    flushed = []
    buf = SendBuffer(2, threshold_pairs=10, on_flush=lambda d, p: flushed.append((d, len(p))))
    buf.add(0, make_pairs(list(range(7))))
    assert flushed == [] and buf.pending(0) == 7
    buf.add(0, make_pairs(list(range(7))))
    assert flushed == [(0, 10)] and buf.pending(0) == 4
    buf.flush_all()
    assert flushed == [(0, 10), (0, 4)]
    assert buf.pairs_sent == 14
    assert buf.flushes == 2


def test_send_buffer_multiple_destinations_independent():
    flushed = []
    buf = SendBuffer(3, threshold_pairs=5, on_flush=lambda d, p: flushed.append(d))
    buf.add(1, make_pairs(list(range(5))))
    buf.add(2, make_pairs(list(range(4))))
    assert flushed == [1]
    buf.flush_all()
    assert flushed == [1, 2]


def test_send_buffer_validation():
    with pytest.raises(ValueError):
        SendBuffer(0, 10)
    with pytest.raises(ValueError):
        SendBuffer(1, 0)
    buf = SendBuffer(1, 10)
    with pytest.raises(IndexError):
        buf.add(5, make_pairs([1]))


@given(n=st.integers(0, 10_000), thr=st.integers(1, 999))
@settings(max_examples=60, deadline=None)
def test_split_message_sizes_conserves_pairs(n, thr):
    sizes = split_message_sizes(n, thr)
    assert sum(sizes) == n
    assert all(1 <= s <= thr for s in sizes)
    if n:
        assert all(s == thr for s in sizes[:-1])
