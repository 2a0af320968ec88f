"""The Sort stage: a θ(n) counting sort over dense integer keys.

"We use a specialized counting sort on the CPU or GPU (depending on the
amount of data) that runs in θ(n) since the library knows the minimum
and maximum keys for each node, as well as the maximum number of keys."

Knowing the key range is what removes the comparisons: a key below
``n_slots`` has ``ceil(log2(n_slots) / 16)`` 16-bit digits, a number
fixed by the partitioner and not by the data.
:func:`stable_counting_order` is a least-significant-digit radix over
those digits, and each digit pass is ``np.argsort(kind="stable")`` on a
``uint16`` column, which NumPy runs as a radix sort (per byte: a
histogram, a prefix sum, one stable scatter — no comparisons).  One
pass covers up to 2¹⁶ slots, two cover 2³², so the order costs θ(n)
for every range the renderer declares.  Every pass is stable, so pairs
with equal keys keep arrival order, which makes distributed runs
deterministic.  The run index the Reduce stage consumes (unique keys,
starts, counts) is read off the sorted key column
(:func:`run_length_groups`), so nothing sized by the key range is
allocated.  The same order is the building block of the Reduce side's
(pixel, depth) radix sort (:func:`repro.render.fragments.fragment_sort_order`).

A single-pass C scatter over the whole key (the ``coo_tocsr``
placement kernel of a sparse-matrix library is one) needs an index of
``n_slots`` entries per call and a 24 MiB import on the first; it draws
level from about 10⁵ pairs per call (5·10⁴ for ``int32`` keys of one
digit) and is at most 1.6× faster beyond, while one Sort call of the
renderer — every partition a process owns, in one frame — holds about
4 000 to 14 000 pairs in process (sparse / dense scene at 128²), a
two-worker pool's worker half that.  Best µs per call on the
development box, ``int64`` keys:

=======================  ======  =======  =======
pairs per call              600   13 000  200 000
=======================  ======  =======  =======
digits, 16 384 slots          7       68    1 450
C scatter, 16 384 slots      21       86    1 600
digits, 1 Mi slots           18      160    3 440
C scatter, 1 Mi slots     1 090    1 200    3 510
=======================  ======  =======  =======
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "counting_sort_pairs",
    "run_length_groups",
    "stable_counting_order",
    "SortResult",
]


@dataclass
class SortResult:
    """Sorted pairs plus the compaction index the Reduce stage consumes."""

    pairs: np.ndarray  # sorted by key, stable
    unique_keys: np.ndarray  # ascending unique keys present
    starts: np.ndarray  # start offset of each key's run in `pairs`
    counts: np.ndarray  # run length per unique key


def stable_counting_order(keys: np.ndarray, n_slots: int) -> np.ndarray:
    """Stable bucket-major order of ``keys`` (dense ints in [0, n_slots)).

    LSD radix over 16-bit digits, least significant first; each pass is
    NumPy's stable radix sort of one ``uint16`` digit column, taken in
    the order the previous passes left, so the composition is the
    stable sort permutation.  ``n_slots`` fixes the number of passes.
    Raises ``ValueError`` for a key outside the slots.
    """
    keys = np.asarray(keys)
    if len(keys) == 0:
        return np.empty(0, dtype=np.intp)
    # Checked on the keys as given: the uint16 cast below keeps only a
    # digit, so an oversized key would otherwise wrap into range.
    if int(keys.min()) < 0 or int(keys.max()) >= n_slots:
        raise ValueError(f"keys outside [0, {n_slots}) in stable_counting_order")
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while (n_slots - 1) >> shift:
        digit = (keys >> shift).astype(np.uint16)
        order = np.take(order, np.argsort(np.take(digit, order), kind="stable"))
        shift += 16
    return order


def _permute_records(pairs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``pairs[order]`` (``order`` any index array) but ~3× faster for
    plain fixed-width records.

    Fancy indexing on structured dtypes goes through a slow per-field
    path; reinterpreting the records as rows of a word-sized 2-D array
    lets ``np.take`` move each 24-byte record as a contiguous row.
    """
    n = len(pairs)
    itemsize = pairs.dtype.itemsize
    if pairs.flags.c_contiguous and itemsize % 4 == 0:
        rows = pairs.view(np.int32).reshape(n, itemsize // 4)
        return np.take(rows, order, axis=0).view(pairs.dtype).reshape(len(order))
    return pairs[order]


def counting_sort_pairs(
    pairs: np.ndarray,
    key_field: str,
    min_key: int,
    max_key: int,
) -> SortResult:
    """Stable counting sort of structured pairs on an int key field.

    ``min_key``/``max_key`` bound the keys this node can receive — the
    library knows them from the partitioner, which is what lets the sort
    avoid comparisons entirely.
    """
    if max_key < min_key:
        raise ValueError(f"empty key range [{min_key}, {max_key}]")
    n = len(pairs)
    if n == 0:
        return SortResult(
            pairs,
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.int64),
        )
    keys = pairs[key_field].astype(np.int64)
    if keys.min() < min_key or keys.max() > max_key:
        raise ValueError(
            f"keys outside declared range [{min_key}, {max_key}]: "
            f"got [{keys.min()}, {keys.max()}]"
        )
    order = stable_counting_order(keys - min_key, max_key - min_key + 1)
    unique_keys, starts, counts = run_length_groups(np.take(keys, order))
    return SortResult(_permute_records(pairs, order), unique_keys, starts, counts)


def run_length_groups(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unique, starts, counts) of runs in an already-sorted key array."""
    n = len(sorted_keys)
    if n == 0:
        return (np.empty(0, np.int64),) * 3
    change = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    starts = np.nonzero(change)[0]
    counts = np.diff(np.r_[starts, n])
    return sorted_keys[starts].astype(np.int64), starts.astype(np.int64), counts.astype(np.int64)
