"""Unit tests for Resource and Link."""

import pytest

from repro.sim import Environment, Link, Resource
from repro.sim.engine import SimulationError


def run_users(env, resource, service, n):
    """Spawn n unit-service users; return list of (start, end) tuples."""
    spans = []

    def user():
        grant = resource.request()
        yield grant
        t0 = env.now
        try:
            yield env.timeout(service)
        finally:
            resource.release()
        spans.append((t0, env.now))

    for _ in range(n):
        env.process(user())
    env.run()
    return spans


def test_resource_serialises_at_capacity_one():
    env = Environment()
    res = Resource(env, 1)
    spans = run_users(env, res, 1.0, 3)
    assert sorted(spans) == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]


def test_resource_capacity_two_runs_pairs():
    env = Environment()
    res = Resource(env, 2)
    spans = run_users(env, res, 1.0, 4)
    assert sorted(spans) == [(0.0, 1.0), (0.0, 1.0), (1.0, 2.0), (1.0, 2.0)]


def test_resource_fifo_grant_order():
    env = Environment()
    res = Resource(env, 1)
    order = []

    def user(name, arrive):
        yield env.timeout(arrive)
        g = res.request()
        yield g
        order.append(name)
        yield env.timeout(1.0)
        res.release()

    env.process(user("late", 0.2))
    env.process(user("early", 0.1))
    env.run()
    assert order == ["early", "late"]


def test_release_without_hold_is_error():
    env = Environment()
    res = Resource(env, 1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, 0)


def test_resource_utilization_full():
    env = Environment()
    res = Resource(env, 1)
    run_users(env, res, 2.0, 2)  # busy 4s over 4s horizon
    assert res.busy_time() == pytest.approx(4.0)


def test_link_serialises_transfers_and_pipes_latency():
    env = Environment()
    link = Link(env, bandwidth=100.0, latency=0.5)
    done = []

    def xfer(tag):
        yield env.process(link.transfer(100))  # 1s occupancy + 0.5 latency
        done.append((tag, env.now))

    env.process(xfer("a"))
    env.process(xfer("b"))
    env.run()
    # a: occupies 0..1, arrives 1.5; b: occupies 1..2, arrives 2.5.
    assert done == [("a", 1.5), ("b", 2.5)]
    assert link.bytes_moved == 200
    assert link.transfer_count == 2


def test_duplex_link_directions_independent():
    env = Environment()
    link = Link(env, bandwidth=100.0, latency=0.0, duplex=True)
    done = []

    def xfer(tag, direction):
        yield env.process(link.transfer(100, direction=direction))
        done.append((tag, env.now))

    env.process(xfer("tx", 0))
    env.process(xfer("rx", 1))
    env.run()
    assert done == [("tx", 1.0), ("rx", 1.0)]


def test_link_rejects_bad_params():
    env = Environment()
    with pytest.raises(ValueError):
        Link(env, bandwidth=0)
    with pytest.raises(ValueError):
        Link(env, bandwidth=1, latency=-1)
