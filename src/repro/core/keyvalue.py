"""Key-value conventions and validation.

Paper restrictions encoded here:

* **Keys are always four-byte integers** and if key X exists, all keys
  ``0 ≤ k ≤ X`` have a high probability of existing (dense keys).  This
  is what makes a θ(n) counting sort and modulo partitioning possible.
* **Emitted values are homogeneous in size** — we require a structured
  dtype with a designated int32 key field; everything else is the value.
* **Every thread emits**; useless pairs carry the placeholder key −1 and
  are discarded during Partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "KVSpec",
    "PLACEHOLDER",
    "concat_pairs",
    "discard_placeholders",
    "validate_pairs",
]

PLACEHOLDER = np.int32(-1)


@dataclass(frozen=True)
class KVSpec:
    """Shape contract for a job's key-value pairs."""

    dtype: np.dtype
    key_field: str = "key"

    def __post_init__(self):
        dt = np.dtype(self.dtype)
        if dt.names is None or self.key_field not in dt.names:
            raise ValueError(
                f"dtype must be structured with a {self.key_field!r} field"
            )
        kf = dt.fields[self.key_field][0]
        if kf != np.dtype(np.int32):
            raise ValueError(
                f"key field must be int32 (paper restriction), got {kf}"
            )
        object.__setattr__(self, "dtype", dt)

    @property
    def pair_nbytes(self) -> int:
        return self.dtype.itemsize

    @property
    def value_nbytes(self) -> int:
        return self.dtype.itemsize - 4

    def keys(self, pairs: np.ndarray) -> np.ndarray:
        return pairs[self.key_field]

    def empty(self) -> np.ndarray:
        return np.empty(0, dtype=self.dtype)


def concat_pairs(
    parts: Sequence[np.ndarray], spec: KVSpec
) -> tuple[np.ndarray, np.ndarray]:
    """``parts`` end to end, and where each one lies: part ``i`` is
    ``pairs[cuts[i]:cuts[i + 1]]``.

    The records are joined as opaque ``itemsize``-byte blobs:
    ``np.concatenate`` on the structured dtype itself re-derives it
    field by field on every call, which for run-sized parts costs
    several times the copy.
    """
    for part in parts:
        if part.dtype != spec.dtype:
            raise TypeError(f"pairs dtype {part.dtype} != spec {spec.dtype}")
    cuts = np.zeros(len(parts) + 1, dtype=np.int64)
    if not parts:
        return spec.empty(), cuts
    np.cumsum(np.array([len(p) for p in parts], dtype=np.int64), out=cuts[1:])
    blob = np.dtype((np.void, spec.dtype.itemsize))
    pairs = np.concatenate([part.view(blob) for part in parts]).view(spec.dtype)
    return pairs, cuts


def discard_placeholders(pairs: np.ndarray, spec: KVSpec) -> np.ndarray:
    """Drop placeholder emissions (library does this during Partition)."""
    return pairs[pairs[spec.key_field] != PLACEHOLDER]


def validate_pairs(pairs: np.ndarray, spec: KVSpec, max_key: int) -> None:
    """Check the key contract: int32, within [0, max_key] or placeholder."""
    if pairs.dtype != spec.dtype:
        raise TypeError(f"pairs dtype {pairs.dtype} != spec {spec.dtype}")
    if len(pairs) == 0:
        return
    keys = spec.keys(pairs)
    bad = (keys != PLACEHOLDER) & ((keys < 0) | (keys > max_key))
    if np.any(bad):
        example = int(keys[np.nonzero(bad)[0][0]])
        raise ValueError(f"key {example} outside [0, {max_key}]")
