"""Binary-swap compositing (Ma et al. 1994) — the road not taken.

The paper §6 weighs two compositing schemes and picks **direct-send**
"because it allows an overlap of communication and computation, and also
because it fits within the MapReduce model".  :func:`binary_swap_time`
supplies the alternative for the ablation: the communication/compute
cost model of the log₂(n)-round exchange, comparable against the
pipeline's measured Partition+Sort+Reduce time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.network import NetworkSpec

__all__ = ["binary_swap_time", "SwapCost"]


@dataclass(frozen=True)
class SwapCost:
    """Per-round and total costs of a binary-swap composite."""

    rounds: int
    comm_seconds: float
    composite_seconds: float
    final_gather_seconds: float

    @property
    def total(self) -> float:
        return self.comm_seconds + self.composite_seconds + self.final_gather_seconds


def binary_swap_time(
    n_participants: int,
    image_pixels: int,
    network: NetworkSpec,
    composite_rate: float = 2.5e6,
    pixel_nbytes: int = 16,
    gather: bool = True,
    message_handling: float = 1.8e-3,
) -> SwapCost:
    """Cost model of binary-swap over ``n_participants`` full partial images.

    Round r (0-based) exchanges half of each participant's current
    region — ``pixels / 2^(r+1)`` — with its partner, then composites it.
    After ``log2 n`` rounds every participant owns ``pixels/n`` finished
    pixels; the optional gather ships them to the display node.
    Non-power-of-two counts pay the ⌈log₂⌉ rounds of the 2-3 swap
    generalisation.

    ``composite_rate`` and ``message_handling`` default to the *same*
    host-software constants the direct-send pipeline is charged
    (:class:`~repro.sim.cpu.CPUSpec`), so the ablation compares the
    schemes, not the stacks.
    """
    if n_participants < 1:
        raise ValueError("need at least one participant")
    if image_pixels < 0 or pixel_nbytes < 1 or composite_rate <= 0:
        raise ValueError("bad cost parameters")
    if n_participants == 1:
        return SwapCost(0, 0.0, 0.0, 0.0)
    rounds = math.ceil(math.log2(n_participants))
    comm = 0.0
    comp = 0.0
    region = image_pixels
    for _ in range(rounds):
        half = region / 2.0
        comm += (
            network.latency
            + network.message_overhead
            + 2 * message_handling  # pack at sender, unpack at receiver
            + half * pixel_nbytes / network.bandwidth
        )
        comp += half / composite_rate
        region = half
    gather_s = 0.0
    if gather:
        per_node = image_pixels / n_participants
        gather_s = (n_participants - 1) * (
            network.message_overhead
            + message_handling
            + per_node * pixel_nbytes / network.bandwidth
        ) + network.latency
    return SwapCost(
        rounds=rounds,
        comm_seconds=comm,
        composite_seconds=comp,
        final_gather_seconds=gather_s,
    )
