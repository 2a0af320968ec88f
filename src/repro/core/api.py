"""User-facing MapReduce API.

The paper's library exposes "all user-required tasks ... via objects with
virtual functions used as callbacks".  The Python equivalents are the
abstract classes here: subclass :class:`Mapper` and :class:`Reducer`
(and optionally :class:`Partitioner`) and hand them to a
:class:`~repro.core.job.MapReduceSpec`.

Domain restrictions (paper §3.1.1) the library enforces:

1. a map task (Chunk) must fit in GPU memory — checked at scheduling;
2. keys are 4-byte integers, dense near the low end — enforced by
   :mod:`repro.core.keyvalue`;
3. emitted values are homogeneous in size — structured dtype;
4. every GPU thread emits (placeholders discarded at Partition);
5. partitioning is per-key round-robin by default — a modulo;
6. a single reduce task must fit in GPU memory — many reductions are
   scheduled per kernel.
"""

from __future__ import annotations

import abc
from typing import Any, Optional, Sequence

import numpy as np

from .chunk import Chunk

__all__ = ["Mapper", "Reducer", "Partitioner", "Combiner", "MapOutput"]


class MapOutput:
    """What one map invocation produced.

    ``pairs`` is a structured array whose key field is a 4-byte integer
    (library restriction #2); ``work`` carries the kernel-work counters
    the cost models consume (rays launched, samples taken, …) as a plain
    dict so the library stays renderer-agnostic.
    """

    __slots__ = ("pairs", "work")

    def __init__(self, pairs: np.ndarray, work: Optional[dict[str, int]] = None):
        self.pairs = pairs
        self.work = dict(work or {})


class Mapper(abc.ABC):
    """Produces key-value pairs from one :class:`Chunk`.

    ``initialize`` runs once per device before any chunks are mapped —
    the paper uses it to "allocate static data on the GPU (e.g. view
    matrix)".  ``map`` is the kernel body.

    A mapper whose kernel launch has a fixed cost worth sharing between
    chunks overrides :meth:`map_batch` (several chunks, one launch) and
    :meth:`launch_sizes` (how many consecutive chunks a launch should
    take); executors map every launch through ``map_batch``.  The
    defaults are one chunk per launch.
    """

    def initialize(self, device: Any = None) -> None:  # noqa: B027 - optional hook
        """Per-device setup; safe place for allocations (called once)."""

    @abc.abstractmethod
    def map(self, chunk: Chunk) -> MapOutput:
        """Execute the map kernel over one chunk."""

    def map_batch(self, chunks: Sequence[Chunk]) -> list[MapOutput]:
        """Map ``chunks`` in one launch → one :class:`MapOutput` each,
        identical to what :meth:`map` returns for every chunk alone."""
        return [self.map(chunk) for chunk in chunks]

    def launch_sizes(self, chunks: Sequence[Chunk]) -> list[int]:
        """Cut ``chunks`` into consecutive launches: their sizes, in
        order, summing to ``len(chunks)``."""
        return [1] * len(chunks)

    def static_device_bytes(self) -> int:
        """Bytes of per-device constant data (counted against VRAM)."""
        return 0


class Reducer(abc.ABC):
    """Reduces all values sharing a key into final values.

    ``reduce_all`` receives every pair routed to this reducer, already
    **sorted and compacted by key** (the library's Sort guarantee), and
    returns ``(keys, values)`` arrays of the final reductions: keys
    ascending, each one a key it received, one ``values`` row per key.

    One call may receive the pairs of *several* partitions at once (an
    executor sorts and reduces all the partitions a process owns
    together), so it must reduce each key independently of every other
    key: the row of a key may depend only on that key's pairs, in the
    order received.  That is what keeps the output bitwise the same
    however partitions are grouped into calls.
    """

    def initialize(self, device: Any = None) -> None:  # noqa: B027 - optional hook
        """Per-device setup hook."""

    @abc.abstractmethod
    def reduce_all(self, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reduce sorted pairs → (unique keys, reduced values)."""


class Partitioner(abc.ABC):
    """Maps keys to reducer indices."""

    def __init__(self, n_reducers: int):
        if n_reducers < 1:
            raise ValueError("need at least one reducer")
        self.n_reducers = n_reducers

    @abc.abstractmethod
    def partition(self, keys: np.ndarray) -> np.ndarray:
        """Reducer index (int array) for each key."""


class Combiner(abc.ABC):
    """Optional partial reduce applied to map output before the shuffle.

    The paper **deliberately omits** combining ("it didn't increase
    performance for our volume renderer") — partial-ray fragments of one
    brick rarely share pixels with another brick on the same GPU in a
    useful way.  The hook exists so the ablation benchmark can measure
    exactly that claim.
    """

    @abc.abstractmethod
    def combine(self, pairs: np.ndarray) -> np.ndarray:
        """Fold pairs with equal keys produced by one mapper."""
