"""Per-volume acceleration caching for the ray-cast kernel.

The blocked marcher's empty-space structures are pure functions of
``(brick payload, transfer function)`` and get rebuilt for nothing
across the frames of an orbit (same volume, same transfer function, new
camera) unless cached:

* the per-voxel corner-max empty-space table
  (:func:`repro.render.raycast._empty_space_table`), cached under the
  caller's base key;
* the axis-aligned box of that table's occupied cells
  (:func:`repro.render.raycast._occupied_box`), which the set-up
  slab-tests every ray against so the march positions only the part of
  each ray that can show anything, cached under ``("box",) + base key``.

Both are built (and cached) by :func:`raycast_bricks` *before* it
dispatches to a march-kernel backend (:mod:`repro.render.kernels`), and
the cache key deliberately contains no backend name: the structures are
identical whichever backend consumes them, so a table warmed under
``kernel="numpy"`` is served verbatim to a later ``kernel="numba"``
render (and vice versa) instead of being rebuilt per backend.

:class:`AccelCache` is a byte-bounded LRU of both, keyed on
``(volume token, chunk id, transfer-function version)``:

* the **volume token** is a process-unique string minted per volume (or
  procedural field) object by :func:`volume_token` — tokens are never
  reused, so a table can never be served for the wrong data;
* the **chunk id** identifies the brick within that volume;
* the **transfer-function version** is a content hash
  (:attr:`~repro.render.transfer.TransferFunction1D.version`), so
  editing the transfer function invalidates every cached table.

A module-level cache (:func:`shared_cache`) is what the renderer uses by
default.  Each process owns its own instance — the shared-memory pool
workers of :mod:`repro.parallel` therefore warm their caches on the
first orbit frame and reuse the structures for every later frame,
exactly like static acceleration structures resident on a real GPU.
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from typing import Any, Hashable, Optional

import numpy as np

__all__ = [
    "AccelCache",
    "invalidate_volume",
    "shared_cache",
    "volume_token",
]


class AccelCache:
    """Byte-bounded LRU cache of per-brick acceleration structures."""

    def __init__(self, max_entries: int = 512, max_bytes: int = 256 << 20):
        if max_entries < 1 or max_bytes < 1:
            raise ValueError("cache bounds must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """Return the cached table for ``key`` (marking it recently used)."""
        table = self._entries.get(key)
        if table is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return table

    def put(self, key: Hashable, table: np.ndarray) -> None:
        """Insert ``table``, evicting least-recently-used entries to fit.

        ``None`` is rejected: :meth:`get` could not tell it from a miss,
        so "no structure exists for this key" is simply not cached.
        """
        if table is None:
            raise TypeError("AccelCache cannot store None; skip the put")
        if key in self._entries:
            self._nbytes -= self._entries.pop(key).nbytes
        self._entries[key] = table
        self._nbytes += table.nbytes
        while self._entries and (
            len(self._entries) > self.max_entries or self._nbytes > self.max_bytes
        ):
            _, evicted = self._entries.popitem(last=False)
            self._nbytes -= evicted.nbytes

    def pop(self, key: Hashable) -> Optional[np.ndarray]:
        """Remove and return ``key``'s entry (None when absent)."""
        table = self._entries.pop(key, None)
        if table is not None:
            self._nbytes -= table.nbytes
        return table

    def stats(self) -> dict:
        """Hit-rate snapshot for the telemetry registry."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else None,
            "entries": len(self._entries),
            "nbytes": self._nbytes,
        }

    def clear(self) -> None:
        self._entries.clear()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0


_shared = AccelCache()


def shared_cache() -> AccelCache:
    """The process-wide default cache (one per worker process)."""
    return _shared


_token_counter = itertools.count()
# id(obj) -> (token, weakref).  Keyed by id (not the object) because
# Volume-like objects need not be hashable; the weakref's callback
# removes the entry at collection, so a recycled id can never resurrect
# a dead object's token.
_tokens: dict[int, tuple[str, "weakref.ref"]] = {}


def volume_token(obj: Any) -> Optional[str]:
    """Process-unique, never-reused token identifying a volume-like object.

    Tokens live exactly as long as the object and embed a monotonic
    counter, so (unlike a raw ``id()``) a new object can never inherit a
    collected object's token.  Returns None for objects that cannot be
    weak-referenced — callers then simply skip acceleration caching.

    The token asserts **immutability of the object's voxel data**: it is
    identity-based, so mutating ``volume.data`` in place keeps the token
    and would serve stale cached tables (and stale pool-executor
    arenas).  Renderers treat volumes as immutable; code that must edit
    voxels in place should call :func:`invalidate_volume` afterwards (or
    simply wrap the data in a fresh ``Volume``).
    """
    if obj is None:
        return None
    key = id(obj)
    entry = _tokens.get(key)
    if entry is not None and entry[1]() is obj:
        return entry[0]
    token = f"vol-{next(_token_counter)}"
    try:
        ref = weakref.ref(obj, lambda _r, key=key: _tokens.pop(key, None))
    except TypeError:  # not weak-referenceable
        return None
    _tokens[key] = (token, ref)
    return token


def invalidate_volume(obj: Any) -> None:
    """Forget ``obj``'s token after an in-place edit of its voxel data.

    The next :func:`volume_token` call mints a fresh token, so every
    consumer keyed on it (acceleration caches, the pool executor's
    shared-memory arena fingerprint) re-derives from the new data.
    """
    _tokens.pop(id(obj), None)
