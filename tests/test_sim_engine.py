"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.engine import AllOf


def test_timeout_ordering():
    env = Environment()
    log = []

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(worker("a", 2.0))
    env.process(worker("b", 1.0))
    env.process(worker("c", 3.0))
    env.run()
    assert log == [(1.0, "b"), (2.0, "a"), (3.0, "c")]


def test_zero_delay_fifo_order():
    env = Environment()
    log = []

    def worker(name):
        yield env.timeout(0.0)
        log.append(name)

    for name in "abc":
        env.process(worker(name))
    env.run()
    assert log == ["a", "b", "c"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_process_returns_value_to_waiter():
    env = Environment()
    results = []

    def child():
        yield env.timeout(1.5)
        return 42

    def parent():
        value = yield env.process(child())
        results.append((env.now, value))

    env.process(parent())
    env.run()
    assert results == [(1.5, 42)]


def test_process_exception_propagates_to_waiter():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1.0)
        raise RuntimeError("kernel fault")

    def parent():
        try:
            yield env.process(child())
        except RuntimeError as e:
            caught.append(str(e))

    env.process(parent())
    env.run()
    assert caught == ["kernel fault"]


def test_unwaited_process_exception_surfaces():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        raise RuntimeError("lost error")

    env.process(child())
    with pytest.raises(RuntimeError, match="lost error"):
        env.run()


def test_run_until_stops_clock():
    env = Environment()
    fired = []

    def w():
        yield env.timeout(10.0)
        fired.append(env.now)

    env.process(w())
    env.run(until=5.0)
    assert env.now == 5.0
    assert fired == []
    env.run()
    assert fired == [10.0]


def test_run_until_in_past_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_event_succeed_once():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_yield_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("payload")
    env.run()  # process the event with no waiters
    got = []

    def waiter():
        v = yield ev
        got.append((env.now, v))

    env.process(waiter())
    env.run()
    assert got == [(0.0, "payload")]


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 5

    env.process(bad())
    with pytest.raises(SimulationError, match="must yield Events"):
        env.run()


def test_allof_collects_values_in_order():
    env = Environment()
    out = []

    def child(delay, value):
        yield env.timeout(delay)
        return value

    def parent():
        ev = AllOf(env, [env.process(child(3, "x")), env.process(child(1, "y"))])
        values = yield ev
        out.append((env.now, values))

    env.process(parent())
    env.run()
    assert out == [(3.0, ["x", "y"])]


def test_allof_empty_fires_immediately():
    env = Environment()
    out = []

    def parent():
        values = yield AllOf(env, [])
        out.append((env.now, values))

    env.process(parent())
    env.run()
    assert out == [(0.0, [])]


def test_nested_processes_compose():
    env = Environment()

    def grandchild():
        yield env.timeout(1.0)
        return "g"

    def child():
        v = yield env.process(grandchild())
        yield env.timeout(1.0)
        return v + "c"

    def parent():
        v = yield env.process(child())
        return v + "p"

    p = env.process(parent())
    env.run()
    assert p.value == "gcp"
    assert env.now == 2.0


def test_clock_monotonic_across_many_events():
    env = Environment()
    times = []

    def w(d):
        yield env.timeout(d)
        times.append(env.now)

    import random

    rng = random.Random(7)
    delays = [rng.uniform(0, 100) for _ in range(200)]
    for d in delays:
        env.process(w(d))
    env.run()
    assert times == sorted(times)
    assert len(times) == 200
