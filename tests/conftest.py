import pytest


@pytest.fixture
def open_span_gate(monkeypatch):
    """Carve macro-grid spans on every brick that has a grid.

    The span gate (``repro.render.raycast.SPAN_GATE_*``) is a cost model:
    it keeps ``accel="grid"`` from walking the grid where that cannot
    pay, which is every brick small enough for a test.  Suites whose
    subject is the carve itself — its bitwise invisibility, the numba
    span path, grids shipped through the pool arena — open the gate so
    they keep exercising it.  Pool workers inherit the patch only by
    fork, so pool tests under this fixture also assert the
    ``map.span_carved_bricks`` gauge ``> 0`` — under a spawn start
    method they fail loudly instead of passing without ever carving.
    """
    from repro.render import raycast

    monkeypatch.setattr(raycast, "SPAN_GATE_SAMPLES", 0)
    monkeypatch.setattr(raycast, "SPAN_GATE_STEPS", 0.0)
