"""Streaming message sizes.

"Once enough pairs have been generated by a Mapper, they are sent
asynchronously to the Reducer."  The scheduler models that policy: pairs
leave in messages of at most the send threshold, so the network sees a
stream of bounded messages instead of one giant end-of-map transfer —
the paper's replacement for a disk-based shuffle.
"""

from __future__ import annotations

__all__ = ["split_message_sizes"]


def split_message_sizes(n_pairs: int, threshold_pairs: int) -> list[int]:
    """Message sizes (in pairs) a streaming send of ``n_pairs`` produces."""
    if n_pairs < 0 or threshold_pairs < 1:
        raise ValueError("bad message split arguments")
    if n_pairs == 0:
        return []
    full, rem = divmod(n_pairs, threshold_pairs)
    out = [threshold_pairs] * full
    if rem:
        out.append(rem)
    return out
