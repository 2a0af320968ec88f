"""Tests for pool supervision, recovery, and deterministic fault injection.

The contract under test: with ``supervise=True`` (the default) an
*infrastructure* failure — a worker process dying or a wedged
transport — is recovered **in place** (transport epoch recycled, arena
re-attached, in-flight frames re-executed) and the recovered result is
**bitwise-identical** to a failure-free run; when retries are
exhausted the pool degrades (fewer workers, then the serial executor)
rather than erroring.  User-code exceptions keep the legacy fail-fast
semantics.  Faults are injected deterministically via
:mod:`repro.parallel.faults` plans, never by ad-hoc monkeypatching.
"""

import glob
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import InProcessExecutor
from repro.observability import chrome_trace, disable_tracing, enable_tracing
from repro.parallel import (
    DEFAULT_MAX_FRAME_RETRIES,
    DEFAULT_RETRY_BACKOFF,
    ENV_FAULT_PLAN,
    ENV_MAX_FRAME_RETRIES,
    ENV_RETRY_BACKOFF,
    ENV_WATERMARK_TIMEOUT,
    FaultPlan,
    PoolConfig,
    PoolFailure,
    PoolSupervisor,
    SharedMemoryPoolExecutor,
    WorkerMesh,
)
from repro.parallel.faults import CRASH_EXIT_CODE, resolve_fault_plan
from repro.parallel.ring import RingTimeout
from repro.parallel.socketplane import SocketClosed
from repro.parallel.supervise import (
    classify_failure,
    dead_workers,
    worker_error_to_exception,
)

from test_parallel_executor import (
    BoomReducer,
    ModSquareMapper,
    _generic_job,
    assert_results_identical,
)


def _shm_listing():
    return set(glob.glob("/dev/shm/*"))


def _pool(fault_plan=None, shuffle_mode="parent", reduce_mode="parent",
          workers=2, depth=1, retries=2, **cfg):
    return SharedMemoryPoolExecutor(
        workers=workers,
        reduce_mode=reduce_mode,
        pipeline_depth=depth,
        pool_config=PoolConfig(
            shuffle_mode=shuffle_mode,
            retry_backoff=0.0,
            max_frame_retries=retries,
            fault_plan=fault_plan,
            **cfg,
        ),
    )


# -- fault-plan grammar ------------------------------------------------------
def test_fault_plan_parses_every_action_and_condition():
    plan = FaultPlan.parse(
        "crash@map:worker=1,frame=2; exit(3)@shuffle-out:chunk=0 ;"
        "stall(2.5)@shuffle-in:gen=any;exit@reduce"
    )
    assert [r.action for r in plan.rules] == ["crash", "exit", "stall", "exit"]
    assert [r.stage for r in plan.rules] == [
        "map", "shuffle-out", "shuffle-in", "reduce"
    ]
    crash, ex, stall, bare_exit = plan.rules
    assert (crash.worker, crash.frame, crash.gen) == (1, 2, 0)
    assert (ex.arg, ex.chunk) == (3.0, 0)
    assert (stall.arg, stall.gen) == (2.5, None)  # gen=any
    assert bare_exit.arg is None  # defaults to CRASH_EXIT_CODE when fired


def test_fault_plan_empty_is_no_injection():
    assert FaultPlan.parse(None) is None
    assert FaultPlan.parse("") is None
    assert FaultPlan.parse("  ;  ") is None


@pytest.mark.parametrize("bad", [
    "boom@map",                 # unknown action
    "crash@upload",             # unknown stage
    "crash(3)@map",             # crash takes no argument
    "stall@map",                # stall needs a duration
    "stall(0)@map",             # ... a positive one
    "stall(x)@map",             # non-numeric argument
    "crash@map:gpu=1",          # unknown condition key
    "crash@map:worker=one",     # non-integer condition
    "crash@map:worker",         # not key=value
    "justnoise",                # no stage at all
    "crash@map:frame=0",        # frames are 1-based: can never fire
    "crash@map:frame=-1",       # ... and certainly not negative
    "crash@map:worker=-1",      # worker ids are 0-based, non-negative
    "crash@map:chunk=-2",       # chunk indices likewise
    "crash@map:gen=-1",         # generations likewise
    "exit(3.5)@map",            # exit statuses are integers
])
def test_fault_plan_rejects_bad_grammar(bad):
    with pytest.raises(ValueError):
        FaultPlan.parse(bad)


def test_fault_rule_generation_scoping():
    plan = FaultPlan.parse("crash@map:worker=0; stall(1)@reduce:gen=any")
    gen0, any_gen = plan.rules
    # Default gen=0: fires on the first wave only, so the respawned
    # replacement (generation 1) re-executes cleanly.
    assert gen0.matches("map", 0, 1, None, gen=0)
    assert not gen0.matches("map", 0, 1, None, gen=1)
    assert any_gen.matches("reduce", 3, 2, None, gen=7)


def test_fault_plan_fires_each_rule_at_most_once(monkeypatch):
    plan = FaultPlan.parse("stall(5)@map:worker=0")
    fired = []
    monkeypatch.setattr(FaultPlan, "_trigger", staticmethod(fired.append))
    for _ in range(3):
        plan.fire("map", 0, 1, chunk=0)
    assert len(fired) == 1
    # A fresh generation binding starts with a clean fired set.
    plan.for_generation(1).fire("map", 0, 1, chunk=0)


def test_resolve_fault_plan_precedence(monkeypatch):
    monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
    assert resolve_fault_plan(None) is None
    monkeypatch.setenv(ENV_FAULT_PLAN, "crash@map:worker=1")
    assert resolve_fault_plan(None) == "crash@map:worker=1"
    assert resolve_fault_plan("exit(2)@reduce") == "exit(2)@reduce"
    monkeypatch.setenv(ENV_FAULT_PLAN, "garbage plan")
    with pytest.raises(ValueError):
        resolve_fault_plan(None)


# -- config knobs ------------------------------------------------------------
def test_supervision_knob_env_overrides(monkeypatch):
    for var in (ENV_WATERMARK_TIMEOUT, ENV_MAX_FRAME_RETRIES,
                ENV_RETRY_BACKOFF):
        monkeypatch.delenv(var, raising=False)
    cfg = PoolConfig()
    assert cfg.resolved_watermark_timeout() == cfg.resolved_ring_write_timeout()
    assert cfg.resolved_max_frame_retries() == DEFAULT_MAX_FRAME_RETRIES
    assert cfg.resolved_retry_backoff() == DEFAULT_RETRY_BACKOFF

    monkeypatch.setenv(ENV_WATERMARK_TIMEOUT, "7.5")
    monkeypatch.setenv(ENV_MAX_FRAME_RETRIES, "4")
    monkeypatch.setenv(ENV_RETRY_BACKOFF, "0.25")
    assert PoolConfig().resolved_watermark_timeout() == 7.5
    assert PoolConfig().resolved_max_frame_retries() == 4
    assert PoolConfig().resolved_retry_backoff() == 0.25

    # Explicit construction wins over the environment.
    explicit = PoolConfig(
        watermark_timeout=1.5, max_frame_retries=1, retry_backoff=0.0
    )
    assert explicit.resolved_watermark_timeout() == 1.5
    assert explicit.resolved_max_frame_retries() == 1
    assert explicit.resolved_retry_backoff() == 0.0

    monkeypatch.setenv(ENV_WATERMARK_TIMEOUT, "-1")
    with pytest.raises(ValueError):
        PoolConfig().resolved_watermark_timeout()
    monkeypatch.setenv(ENV_MAX_FRAME_RETRIES, "many")
    with pytest.raises(ValueError):
        PoolConfig().resolved_max_frame_retries()
    monkeypatch.setenv(ENV_RETRY_BACKOFF, "-0.5")
    with pytest.raises(ValueError):
        PoolConfig().resolved_retry_backoff()


def test_pool_config_validates_supervision_fields():
    with pytest.raises(ValueError):
        PoolConfig(watermark_timeout=0)
    with pytest.raises(ValueError):
        PoolConfig(max_frame_retries=-1)
    with pytest.raises(ValueError):
        PoolConfig(retry_backoff=-0.1)
    with pytest.raises(ValueError):
        PoolConfig(fault_plan="nonsense@nowhere")


def test_worker_mesh_watermark_knob():
    mesh = WorkerMesh(0, 2, edge_capacity=1 << 12, write_timeout=2.0,
                      watermark_timeout=3.25)
    try:
        assert mesh.watermark_timeout == 3.25
        assert mesh.write_timeout == 2.0
    finally:
        mesh.close()
    # Unset, the watermark wait inherits the write timeout (pre-knob
    # behaviour).
    mesh = WorkerMesh(1, 2, edge_capacity=1 << 12, write_timeout=1.5)
    try:
        assert mesh.watermark_timeout == 1.5
    finally:
        mesh.close()


# -- classification ----------------------------------------------------------
def test_classify_failure_recoverable_vs_fatal():
    pf = PoolFailure("a worker died", kind="worker-death", workers=[1])
    assert classify_failure(pf) is pf
    wedged = classify_failure(RingTimeout("edge full"))
    assert wedged is not None and wedged.kind == "wedged"
    dropped = classify_failure(SocketClosed("peer 1 reset"))
    assert dropped is not None and dropped.kind == "conn-drop"
    assert dropped.stage == "shuffle-out"
    assert classify_failure(ValueError("user bug")) is None
    assert classify_failure(ConnectionError("not a shuffle socket")) is None
    assert classify_failure(KeyboardInterrupt()) is None


def test_worker_error_to_exception_mapping():
    exc = worker_error_to_exception(1, "map chunk 3", "tb", "RingTimeout")
    assert isinstance(exc, PoolFailure)
    assert exc.kind == "wedged" and exc.stage == "shuffle-out"
    exc = worker_error_to_exception(0, "reduce frame 2", "tb", "RingTimeout")
    assert isinstance(exc, PoolFailure) and exc.stage == "shuffle-in"
    exc = worker_error_to_exception(1, "map chunk 3", "tb", "SocketClosed")
    assert isinstance(exc, PoolFailure)
    assert exc.kind == "conn-drop" and exc.stage == "shuffle-out"
    assert exc.workers == [1]
    exc = worker_error_to_exception(0, "reduce frame 2", "tb", "SocketClosed")
    assert isinstance(exc, PoolFailure) and exc.stage == "shuffle-in"
    exc = worker_error_to_exception(0, "map chunk 0", "tb", "ValueError")
    assert isinstance(exc, RuntimeError)
    assert not isinstance(exc, PoolFailure)


def test_supervisor_ledger_and_summary():
    sup = PoolSupervisor()
    assert not sup.active and sup.summary_lines() == []
    sup.record_failure(PoolFailure("x", kind="worker-death", stage="map"))
    sup.record_respawn(2, 0.01, gen=1)
    sup.record_reexecuted(2)
    sup.record_degraded(2, 1)
    sup.record_serial_fallback()
    assert sup.active
    snap = sup.snapshot(frame_retries=1, workers=1)
    assert snap["failures"] == 1 and snap["respawns"] == 1
    assert snap["frames_reexecuted"] == 2
    assert snap["retries_by_stage"] == {"map": 1}
    assert snap["degraded_events"] == [(2, 1)]
    assert snap["serial_fallback"] is True
    assert snap["frame_retries"] == 1 and snap["workers"] == 1
    text = "\n".join(sup.summary_lines())
    assert "1 worker failure" in text and "serial" in text


def test_supervisor_event_history_is_bounded():
    sup = PoolSupervisor()
    for _ in range(PoolSupervisor.MAX_EVENTS + 10):
        sup.record_failure(PoolFailure("x", kind="worker-death"))
    assert len(sup.events) == PoolSupervisor.MAX_EVENTS
    assert sup.failures == PoolSupervisor.MAX_EVENTS + 10  # counters unbounded


# -- in-place recovery -------------------------------------------------------
RECOVERY_CASES = [
    # (plan, shuffle_mode, reduce_mode)
    ("crash@map:worker=0,frame=1", "parent", "parent"),
    ("crash@map:worker=1,frame=1", "mesh", "worker"),
    ("exit(9)@shuffle-out:worker=1,frame=1", "parent", "parent"),
    ("exit(9)@shuffle-out:worker=0,frame=1", "mesh", "worker"),
    ("crash@reduce:worker=0,frame=1", "mesh", "worker"),
    # Socket plane: a crash mid-map drops the worker's connections too,
    # so recovery must survive the peers' SocketClosed reports racing
    # the death detection.
    ("crash@map:worker=1,frame=1", "tcp", "worker"),
    ("exit(9)@shuffle-out:worker=0,frame=1", "tcp", "worker"),
    ("crash@reduce:worker=0,frame=1", "tcp", "worker"),
]


@pytest.mark.parametrize("plan,shuffle_mode,reduce_mode", RECOVERY_CASES)
def test_recovers_in_place_bitwise_identical(plan, shuffle_mode, reduce_mode):
    spec, chunks = _generic_job(ModSquareMapper(7))
    ref = InProcessExecutor().execute(spec, chunks)
    before = _shm_listing()
    with _pool(plan, shuffle_mode, reduce_mode) as pool:
        result = pool.execute(spec, chunks)
        snap = pool._supervisor.snapshot()
    assert_results_identical(result, ref)
    assert snap["failures"] == 1
    assert snap["respawns"] == 1
    assert snap["frames_reexecuted"] == 1
    assert not snap["degraded_events"] and not snap["serial_fallback"]
    assert result.stats.recovery is not None
    assert result.stats.recovery["workers"] == 2
    assert _shm_listing() - before == set()


class SlowMapper(ModSquareMapper):
    """Every map takes long enough to dwarf a process spawn."""

    def map(self, chunk):
        time.sleep(0.2)
        return super().map(chunk)


def test_respawn_latency_covers_the_replayed_maps():
    """``respawn_seconds`` and the ``respawn`` span run from the spawn
    until the replayed frame's maps are sealed on the fresh wave, so
    whatever a new worker pays on its first launch is inside them."""
    spec, chunks = _generic_job(SlowMapper(7))
    enable_tracing()
    try:
        with _pool("crash@map:worker=0,frame=1", "mesh", "worker") as pool:
            pool.execute(spec, chunks)
            snap = pool._supervisor.snapshot()
    finally:
        tracer = disable_tracing()
    events = chrome_trace(tracer)["traceEvents"]
    (respawn,) = [e for e in events if e["name"] == "respawn" and e["ph"] == "X"]
    replayed = [
        e for e in events
        if e["ph"] == "X" and e["name"].startswith("map:") and e["args"]["gen"] >= 1
    ]
    longest = max(e["dur"] for e in replayed)  # µs
    assert longest >= 0.2e6 and snap["respawn_seconds"] * 1e6 >= longest
    for e in replayed:
        assert respawn["ts"] <= e["ts"]
        assert e["ts"] + e["dur"] <= respawn["ts"] + respawn["dur"]


def test_recovery_stats_stay_none_without_failures():
    spec, chunks = _generic_job(ModSquareMapper(7))
    with _pool() as pool:
        result = pool.execute(spec, chunks)
    assert result.stats.recovery is None
    assert "recovery" not in result.stats.as_dict()


def test_recovers_with_pipelined_frames_in_flight():
    """A crash with pipeline_depth=2 replays *both* in-flight frames."""
    spec, chunks = _generic_job(ModSquareMapper(7))
    ref = InProcessExecutor().execute(spec, chunks)
    before = _shm_listing()
    with _pool("crash@map:worker=0,frame=2", "mesh", "worker",
               depth=2) as pool:
        frames = [pool.submit(spec, chunks) for _ in range(3)]
        results = [pool.collect(f) for f in frames]
        snap = pool._supervisor.snapshot()
    for r in results:
        assert_results_identical(r, ref)
    assert snap["failures"] == 1 and snap["respawns"] == 1
    assert snap["frames_reexecuted"] >= 1
    assert _shm_listing() - before == set()


def test_mesh_watermark_expiry_raises_ring_timeout():
    """The watermark wait is bounded by the promoted knob, not the ring
    write timeout: an unreachable watermark raises within it."""
    mesh = WorkerMesh(0, 1, edge_capacity=1 << 12, write_timeout=30.0,
                      watermark_timeout=0.2)
    try:
        t0 = time.monotonic()
        with pytest.raises(RingTimeout, match="watermark"):
            mesh.take_frame(1, owned=[0], n_chunks=1,
                            kv_dtype=np.dtype("int64"))
        assert time.monotonic() - t0 < 5.0  # bounded by 0.2s, not 30s
    finally:
        mesh.close()


def test_wedged_stalled_worker_recovers():
    """A stalled (alive but unresponsive) worker wedges its peers: with
    a small mesh edge, worker 1's fragment writes into the sleeping
    worker 0's inbound edge block until the ring write timeout, which
    classifies as a wedged transport and recovers like a death — the
    stalled worker is SIGTERMed with the rest of the epoch.

    Many chunks (rather than bigger runs, which would overflow the
    record-size limit and fall back through the parent) guarantee the
    wedge: before its first map message arrives, the to-be-stalled
    worker cooperatively drains its inbound edges, and with only a few
    records a loaded machine can let the peer finish shuffling inside
    that window — then nothing ever blocks and the test just sleeps
    out the stall."""
    spec, chunks = _generic_job(ModSquareMapper(7), n_chunks=32,
                                n_elems=512)
    ref = InProcessExecutor().execute(spec, chunks)
    before = _shm_listing()
    with _pool("stall(30)@map:worker=0,frame=1", "mesh", "worker",
               mesh_edge_capacity=3072, ring_write_timeout=1.0) as pool:
        t0 = time.monotonic()
        result = pool.execute(spec, chunks)
        assert time.monotonic() - t0 < 20.0  # recovered, didn't sleep out
        snap = pool._supervisor.snapshot()
    assert_results_identical(result, ref)
    assert snap["failures"] >= 1
    assert snap["respawns"] >= 1
    assert "shuffle-out" in snap["retries_by_stage"]
    assert _shm_listing() - before == set()


def test_user_code_errors_stay_fatal_under_supervision():
    spec, chunks = _generic_job(ModSquareMapper(7))
    spec.reducer = BoomReducer()
    with _pool(reduce_mode="worker", shuffle_mode="mesh") as pool:
        with pytest.raises(RuntimeError, match="task failure"):
            pool.execute(spec, chunks)
        assert not pool._supervisor.active


def test_supervise_false_keeps_legacy_fail_fast():
    spec, chunks = _generic_job(ModSquareMapper(7))
    pool = SharedMemoryPoolExecutor(
        workers=2,
        supervise=False,
        pool_config=PoolConfig(fault_plan="crash@map:worker=0,frame=1"),
    )
    with pool:
        with pytest.raises(RuntimeError, match="died during execute"):
            pool.execute(spec, chunks)


# -- degradation ladder ------------------------------------------------------
@pytest.mark.parametrize("shuffle_mode,reduce_mode", [
    ("parent", "parent"),
    pytest.param("mesh", "worker", marks=pytest.mark.slow),
])
def test_persistent_fault_degrades_to_serial(shuffle_mode, reduce_mode):
    """gen=any makes every respawned wave re-crash: the ladder must
    shrink 2 -> 1, then finish on the serial executor — never error."""
    spec, chunks = _generic_job(ModSquareMapper(7))
    ref = InProcessExecutor().execute(spec, chunks)
    before = _shm_listing()
    with _pool("crash@map:worker=0,frame=1,gen=any", shuffle_mode,
               reduce_mode, retries=1) as pool:
        result = pool.execute(spec, chunks)
        snap = pool._supervisor.snapshot()
        # The pool is pinned to the serial floor for later frames too.
        again = pool.execute(spec, chunks)
    assert_results_identical(result, ref)
    assert_results_identical(again, ref)
    assert snap["degraded_events"] == [(2, 1)]
    assert snap["serial_fallback"] is True
    assert result.stats.recovery["workers"] == 0
    assert _shm_listing() - before == set()


def test_shuffle_spec_degrade_reowns_every_partition():
    """The degradation step's ownership contract: the same
    ``partition % n_workers`` rule over the surviving count covers every
    partition exactly once, so re-owning cannot change results."""
    from repro.core.executors import ShuffleSpec

    spec = ShuffleSpec(n_reducers=5, n_workers=3)
    shrunk = spec.degrade(2)
    assert (shrunk.n_reducers, shrunk.n_workers) == (5, 2)
    owned = sorted(
        p for w in range(2) for p in shrunk.owned_partitions(w)
    )
    assert owned == list(range(5))
    assert spec.degrade(1).owned_partitions(0) == list(range(5))  # serial
    with pytest.raises(ValueError):
        spec.degrade(0)
    with pytest.raises(ValueError):
        spec.degrade(4)  # degrade only shrinks


# -- shutdown hygiene --------------------------------------------------------
def test_close_is_idempotent_and_concurrent_safe():
    spec, chunks = _generic_job(ModSquareMapper(7))
    before = _shm_listing()
    pool = _pool()
    pool.execute(spec, chunks)
    errors = []

    def _close():
        try:
            pool.close()
        except BaseException as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=_close) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    pool.close()  # and once more, serially
    assert errors == []
    assert _shm_listing() - before == set()


def test_sigterm_worker_exits_cleanly_and_recovery_continues():
    """An external SIGTERM looks like any other death to the watchdog;
    the worker's handler converts it to SystemExit so its finally-block
    teardown (arena detach, ring close) runs before the exit."""
    spec, chunks = _generic_job(ModSquareMapper(7))
    ref = InProcessExecutor().execute(spec, chunks)
    before = _shm_listing()
    with _pool() as pool:
        first = pool.execute(spec, chunks)
        victim = pool._state["procs"][0]
        os.kill(victim.pid, signal.SIGTERM)
        victim.join(5.0)
        # None: still alive; -15: died without running the handler;
        # 1: the teardown itself raised.
        assert victim.exitcode == 128 + signal.SIGTERM
        # The next frame trips the watchdog and recovers in place.
        second = pool.execute(spec, chunks)
        snap = pool._supervisor.snapshot()
    assert_results_identical(first, ref)
    assert_results_identical(second, ref)
    assert snap["failures"] >= 1 and snap["respawns"] >= 1
    assert _shm_listing() - before == set()


def test_crash_exit_code_is_distinct():
    assert CRASH_EXIT_CODE == 70


def test_dead_workers_reports_name_and_exitcode():
    class FakeProc:
        def __init__(self, name, alive, code):
            self.name, self._alive, self.exitcode = name, alive, code

        def is_alive(self):
            return self._alive

    procs = [FakeProc("w0", True, None), FakeProc("w1", False, 70)]
    assert dead_workers(procs) == [("w1", 70)]
