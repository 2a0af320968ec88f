"""Discrete-event simulation engine.

This is the substrate on which the simulated GPU cluster runs.  It is a
compact, dependency-free process-based discrete-event simulator in the
style of SimPy: *processes* are Python generators that ``yield`` events
(timeouts, resource grants, completion of other processes), and the
:class:`Environment` advances a virtual clock from one scheduled event to
the next.

The paper's MapReduce library owes its performance to *overlap* — disk
reads, PCIe copies, GPU kernels, and network sends all proceed
concurrently.  A process-based simulator expresses that overlap directly:
each concurrent activity is a process, shared hardware is a
:class:`~repro.sim.resources.Resource`, and the event queue interleaves
them exactly as a real asynchronous runtime would.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for protocol violations inside the simulator."""


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` (or
    :meth:`fail`) schedules it, and once the environment processes it the
    event is *processed* and its callbacks have run.  Processes wait on
    events by ``yield``-ing them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception if it failed)."""
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, optionally after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception that will be re-raised in waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay)
        return self


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._value = value
        env._schedule(self, delay)


class Process(Event):
    """A running generator; also an event that fires when the generator returns.

    The generator must yield :class:`Event` instances.  The value sent back
    into the generator is the event's payload; failed events re-raise their
    exception inside the generator so processes can ``try/except`` them.
    """

    __slots__ = ("generator", "name", "_waiting_on")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError("process() requires a generator")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume the generator at time now.
        boot = Event(env)
        boot.callbacks.append(self._resume)
        boot.succeed()

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event.ok:
                target = self.generator.send(event.value)
            else:
                target = self.generator.throw(event.value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:  # propagate failure to waiters
            if not self._triggered:
                self.fail(exc)
                if not self.callbacks:
                    # Nobody is waiting on this process: surface the error
                    # instead of swallowing it.
                    raise
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
        if target.processed:
            # Already done: resume immediately at the current time.
            relay = Event(self.env)
            relay.callbacks.append(self._resume)
            if target.ok:
                relay.succeed(target.value)
            else:
                relay.fail(target.value)
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)


class AllOf(Event):
    """Fires when all child events have fired; value is the list of their values."""

    __slots__ = ("_pending", "_results", "_events")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._results: list[Any] = [None] * len(self._events)
        self._pending = 0
        for i, ev in enumerate(self._events):
            if ev.processed:
                if not ev.ok:
                    self.fail(ev.value)
                    return
                self._results[i] = ev.value
            else:
                self._pending += 1
                ev.callbacks.append(self._make_cb(i))
        if self._pending == 0 and not self._triggered:
            self.succeed(self._results)

    def _make_cb(self, index: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
            if self._triggered:
                return
            if not ev.ok:
                self.fail(ev.value)
                return
            self._results[index] = ev.value
            self._pending -= 1
            if self._pending == 0:
                self.succeed(self._results)

        return cb


class Environment:
    """Owns the virtual clock and the pending-event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention throughout repro)."""
        return self._now

    # -- event construction helpers ------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self._now + delay, next(self._counter), event))

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("step() on empty queue")
        t, _, event = heapq.heappop(self._queue)
        if t < self._now:
            raise SimulationError("time went backwards")
        self._now = t
        event._processed = True
        callbacks, event.callbacks = event.callbacks, []
        for cb in callbacks:
            cb(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``."""
        if until is not None and until < self._now:
            raise ValueError("run(until) is in the past")
        while self._queue:
            t = self._queue[0][0]
            if until is not None and t > until:
                self._now = until
                return
            self.step()
        if until is not None:
            self._now = until
