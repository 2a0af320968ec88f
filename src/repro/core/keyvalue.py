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

    def keys(self, pairs: np.ndarray) -> np.ndarray:
        return pairs[self.key_field]


def concat_pairs(
    parts: Sequence[np.ndarray], spec: KVSpec
) -> tuple[np.ndarray, np.ndarray]:
    """``parts`` end to end, and where each one lies: part ``i`` is
    ``pairs[cuts[i]:cuts[i + 1]]``.

    The records are joined as opaque bytes, one ``bytearray.join`` over
    the parts' buffers: ``np.concatenate`` on the structured dtype
    re-derives it field by field on every call, and even a per-part
    view as opaque records costs more than the copy of a run-sized part.
    """
    for part in parts:
        if part.dtype != spec.dtype:
            raise TypeError(f"pairs dtype {part.dtype} != spec {spec.dtype}")
    cuts = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(np.array(list(map(len, parts)), dtype=np.int64), out=cuts[1:])
    # ascontiguousarray returns a contiguous part itself, uncopied.
    joined = bytearray().join(map(np.ascontiguousarray, parts))
    return np.frombuffer(joined, spec.dtype), cuts


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
