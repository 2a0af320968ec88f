"""Shared-hardware primitives for the cluster simulator.

Two kinds of contention appear in the paper's pipeline and each maps to
one primitive here:

* :class:`Resource` — a FIFO server pool with integer capacity.  A GPU's
  kernel engine is a ``Resource(capacity=1)``; so is a disk spindle.
* :class:`Link` — a bandwidth/latency pipe (PCIe lane, InfiniBand port).
  Transfers serialise on the link and take ``latency + bytes/bandwidth``.
"""

from __future__ import annotations

from collections import deque

from .engine import Environment, Event, SimulationError

__all__ = ["Resource", "Link"]


class Resource:
    """FIFO resource with ``capacity`` concurrent users.

    Usage from a process::

        grant = resource.request()
        yield grant
        try:
            yield env.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        # utilisation accounting
        self._busy_time = 0.0
        self._last_change = env.now

    def _account(self) -> None:
        now = self.env.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Integrated user-seconds up to the current simulated time."""
        self._account()
        return self._busy_time

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        ev = self.env.event()
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release one held slot (caller must hold one)."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot straight to the next waiter; in_use unchanged.
            ev = self._waiters.popleft()
            ev.succeed(self)
        else:
            self._account()
            self._in_use -= 1


class Link:
    """A serialising communication link with latency and bandwidth.

    A transfer of ``nbytes`` occupies the link for ``nbytes / bandwidth``
    seconds and completes ``latency`` seconds after its last byte leaves.
    Multiple in-flight transfers queue FIFO, which models a shared PCIe
    lane or a NIC port.  ``duplex=True`` gives independent queues per
    direction (QDR InfiniBand is full duplex).
    """

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "",
        duplex: bool = False,
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self._channels = [Resource(env, 1, name=f"{name}:tx")]
        if duplex:
            self._channels.append(Resource(env, 1, name=f"{name}:rx"))
        self.bytes_moved = 0
        self.transfer_count = 0

    def occupancy(self, nbytes: int) -> float:
        """Seconds the link is occupied by a transfer of ``nbytes``."""
        return nbytes / self.bandwidth

    def transfer(self, nbytes: int, direction: int = 0):
        """Process generator: move ``nbytes`` across the link.

        ``direction`` selects the duplex channel (0=tx, 1=rx); on a
        half-duplex link all directions share channel 0.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        chan = self._channels[direction if direction < len(self._channels) else 0]
        grant = chan.request()
        yield grant
        try:
            yield self.env.timeout(self.occupancy(nbytes))
        finally:
            chan.release()
        # Propagation delay does not occupy the link.
        if self.latency > 0:
            yield self.env.timeout(self.latency)
        self.bytes_moved += nbytes
        self.transfer_count += 1
        return nbytes
