"""Tests for the pluggable shuffle plane (`repro.parallel.shuffle`).

The executor-parity and golden suites already pin that both planes are
bitwise-indistinguishable; this layer tests the plane machinery itself:
the ShuffleSpec ownership/routing contract, the mesh record protocol
and per-frame watermarks, transport configuration (PoolConfig + env
overrides), the control-plane guarantee (zero run bytes through the
parent), NUMA pinning, and the mesh failure modes — a reducer-owner
dying mid-shuffle and a wedged edge — which must tear the pool down
with zero leaked shared-memory segments and allow a bitwise retry.
"""

import os
import time

import numpy as np
import pytest

from repro.core import InProcessExecutor, ShuffleSpec
from repro.parallel import (
    DEFAULT_RING_WRITE_TIMEOUT,
    ENV_RING_WRITE_TIMEOUT,
    ENV_SHUFFLE_MODE,
    PoolConfig,
    SharedMemoryPoolExecutor,
    WorkerMesh,
    shm_segment_exists,
    usable_cores,
)
from repro.parallel.shuffle import MESH_HEADER_NBYTES


# -- the shared ownership / routing contract ---------------------------------
def test_shuffle_spec_ownership_partition_modulo_workers():
    s = ShuffleSpec(n_reducers=7, n_workers=3)
    assert [s.owner_of(p) for p in range(7)] == [0, 1, 2, 0, 1, 2, 0]
    assert s.owned_partitions(0) == [0, 3, 6]
    assert s.owned_partitions(1) == [1, 4]
    assert s.owned_partitions(2) == [2, 5]
    # Every partition owned exactly once.
    owned = [p for w in range(3) for p in s.owned_partitions(w)]
    assert sorted(owned) == list(range(7))
    # More workers than partitions: the surplus owns nothing.
    s2 = ShuffleSpec(n_reducers=2, n_workers=4)
    assert s2.owned_partitions(2) == [] and s2.owned_partitions(3) == []
    # The serial degenerate case: one worker owns everything.
    assert ShuffleSpec(5).owned_partitions(0) == list(range(5))


def test_shuffle_spec_validation():
    with pytest.raises(ValueError):
        ShuffleSpec(0)
    with pytest.raises(ValueError):
        ShuffleSpec(1, 0)
    s = ShuffleSpec(4, 2)
    with pytest.raises(ValueError):
        s.owner_of(4)
    with pytest.raises(ValueError):
        s.owned_partitions(2)


def test_map_chunks_to_runs_run_layout():
    from types import SimpleNamespace

    from repro.core import Chunk, KVSpec, MapOutput, Mapper, RoundRobinPartitioner
    from repro.core.executors import map_chunks_to_runs

    kv = np.dtype([("key", np.int32), ("val", np.float32)])
    pairs = np.zeros(10, dtype=kv)
    pairs["key"] = np.arange(10)

    class Emit(Mapper):
        def map(self, chunk):
            return MapOutput(chunk.payload())

    spec = SimpleNamespace(
        mapper=Emit(), partitioner=RoundRobinPartitioner(3), combiner=None,
        kv=KVSpec(kv), max_key=9, n_reducers=3,
    )
    (runs, emitted, kept, _, routed), = map_chunks_to_runs(
        spec, [Chunk(id=0, nbytes=pairs.nbytes, data=pairs)]
    )
    assert (emitted, kept) == (10, 10)
    assert routed.tolist() == [4, 3, 3]
    assert [len(r) for r in runs] == [4, 3, 3]
    # Emission order preserved within a run (the stable sort relies on it).
    assert runs[0]["key"].tolist() == [0, 3, 6, 9]
    assert runs[1]["key"].tolist() == [1, 4, 7]


# -- transport configuration -------------------------------------------------
def test_pool_config_env_overrides(monkeypatch):
    monkeypatch.delenv(ENV_RING_WRITE_TIMEOUT, raising=False)
    monkeypatch.delenv(ENV_SHUFFLE_MODE, raising=False)
    cfg = PoolConfig()
    assert cfg.resolved_ring_write_timeout() == DEFAULT_RING_WRITE_TIMEOUT
    # Auto picks the plane that matches the reduce placement...
    assert cfg.resolved_shuffle_mode("worker") == "mesh"
    assert cfg.resolved_shuffle_mode("parent") == "parent"
    # ...unless the environment pins it (the CI slow matrix does this).
    monkeypatch.setenv(ENV_SHUFFLE_MODE, "parent")
    assert cfg.resolved_shuffle_mode("worker") == "parent"
    monkeypatch.setenv(ENV_SHUFFLE_MODE, "mesh")
    assert cfg.resolved_shuffle_mode("parent") == "mesh"
    monkeypatch.setenv(ENV_SHUFFLE_MODE, "bogus")
    with pytest.raises(ValueError, match="REPRO_SHUFFLE_MODE"):
        cfg.resolved_shuffle_mode("worker")
    # Explicit modes beat the environment.
    assert PoolConfig(shuffle_mode="parent").resolved_shuffle_mode("worker") == "parent"
    # Timeout: explicit > env > default; soak tests use the env knob.
    monkeypatch.setenv(ENV_RING_WRITE_TIMEOUT, "7.5")
    assert cfg.resolved_ring_write_timeout() == 7.5
    assert PoolConfig(ring_write_timeout=2.0).resolved_ring_write_timeout() == 2.0
    monkeypatch.setenv(ENV_RING_WRITE_TIMEOUT, "not-a-number")
    with pytest.raises(ValueError, match="REPRO_RING_WRITE_TIMEOUT"):
        cfg.resolved_ring_write_timeout()
    # Nonpositive env values are as invalid as nonpositive kwargs:
    # silently falling back to 300s would hide the misconfiguration.
    monkeypatch.setenv(ENV_RING_WRITE_TIMEOUT, "0")
    with pytest.raises(ValueError, match="must be positive"):
        cfg.resolved_ring_write_timeout()


def test_pool_config_edge_capacity_and_validation():
    assert PoolConfig(ring_capacity=8 << 20).resolved_edge_capacity(4) == 2 << 20
    assert PoolConfig(ring_capacity=1024).resolved_edge_capacity(4) == 1 << 16
    assert PoolConfig(mesh_edge_capacity=4096).resolved_edge_capacity(4) == 4096
    with pytest.raises(ValueError):
        PoolConfig(shuffle_mode="ring")
    with pytest.raises(ValueError):
        PoolConfig(ring_capacity=0)
    with pytest.raises(ValueError):
        PoolConfig(mesh_edge_capacity=MESH_HEADER_NBYTES)


def test_executor_resolves_transport_at_construction(monkeypatch):
    monkeypatch.delenv(ENV_SHUFFLE_MODE, raising=False)
    ex = SharedMemoryPoolExecutor(workers=2, reduce_mode="worker")
    assert ex.shuffle_mode == "mesh" and ex.mesh_active
    ex = SharedMemoryPoolExecutor(workers=2, reduce_mode="parent")
    assert ex.shuffle_mode == "parent" and not ex.mesh_active
    # mesh requested with a parent-side reduce: every run's destination
    # IS the parent, so the mesh never materializes — and every
    # user-facing surface reports the plane that actually ran.
    ex = SharedMemoryPoolExecutor(workers=2, reduce_mode="parent",
                                  shuffle_mode="mesh")
    assert ex.shuffle_mode == "mesh" and not ex.mesh_active
    assert ex.effective_shuffle_mode == "parent"
    assert SharedMemoryPoolExecutor(
        workers=2, reduce_mode="worker", shuffle_mode="mesh"
    ).effective_shuffle_mode == "mesh"
    # env steering of "auto" is captured once, at construction
    monkeypatch.setenv(ENV_SHUFFLE_MODE, "parent")
    ex = SharedMemoryPoolExecutor(workers=2, reduce_mode="worker")
    assert ex.shuffle_mode == "parent" and not ex.mesh_active
    monkeypatch.setenv(ENV_RING_WRITE_TIMEOUT, "9")
    ex = SharedMemoryPoolExecutor(workers=1)
    assert ex.ring_write_timeout == 9.0


def test_mesh_fd_headroom_guard(monkeypatch):
    """On hosts where the parent's O(N²) edge attachments would blow the
    fd soft limit, an implicit (auto) mesh degrades to the parent plane
    with a warning; an explicit mesh request fails fast with guidance
    instead of EMFILE mid-handshake."""
    from repro.parallel.shuffle import mesh_fd_headroom

    fits, needed, _ = mesh_fd_headroom(2)
    assert needed == 2 * 1 + 4 * 2 + 64
    import repro.parallel.pool as pool_mod

    monkeypatch.setattr(
        pool_mod, "mesh_fd_headroom", lambda w: (False, 9999, 128)
    )
    monkeypatch.delenv(ENV_SHUFFLE_MODE, raising=False)
    with pytest.warns(RuntimeWarning, match="RLIMIT_NOFILE"):
        ex = SharedMemoryPoolExecutor(workers=2, reduce_mode="worker")
    assert ex.effective_shuffle_mode == "parent" and not ex.mesh_active
    with pytest.raises(ValueError, match="RLIMIT_NOFILE"):
        SharedMemoryPoolExecutor(
            workers=2, reduce_mode="worker", shuffle_mode="mesh"
        )


def test_renderer_rejects_bad_shuffle_mode():
    from repro import MapReduceVolumeRenderer

    with pytest.raises(ValueError, match="shuffle_mode"):
        MapReduceVolumeRenderer(volume_shape=(8, 8, 8), shuffle_mode="ring")


# -- the mesh record protocol (single-process loopback) ----------------------
def make_pair_mesh(capacity=4096, timeout=2.0):
    """Two cross-attached WorkerMesh halves in one process."""
    m0 = WorkerMesh(0, 2, capacity, timeout)
    m1 = WorkerMesh(1, 2, capacity, timeout)
    m0.attach_row({1: m1.inbound_names[0]})
    m1.attach_row({0: m0.inbound_names[1]})
    return m0, m1


def test_worker_mesh_roundtrip_restores_chunk_order():
    """Worker 0 maps chunks 0 and 2, worker 1 maps chunk 1: worker 1
    (owner of partition 1) must reassemble the partition's runs in
    chunk order even though they arrive out of order, over two channels
    (edge ring + local self-stash), with an empty run in the mix."""
    kv = np.dtype([("key", np.int32), ("val", np.float32)])
    m0, m1 = make_pair_mesh()
    try:
        def run(ci, n):
            r = np.zeros(n, dtype=kv)
            r["key"] = np.arange(n) + 100 * ci
            return r

        # Worker 0 ships its chunks' partition-1 runs newest-first (out
        # of chunk order), plus a self-owned partition-0 record that
        # must short-circuit without touching a ring.
        assert m0.send(seq=5, ci=2, part=1, run=run(2, 3), owner=1)
        assert m0.send(seq=5, ci=0, part=1, run=run(0, 0), owner=1)  # empty
        assert m0.send(seq=5, ci=0, part=0, run=run(0, 2), owner=0)
        written = sum(r.written for r in m0.outbound.values())
        assert written == 2 * MESH_HEADER_NBYTES + (3 + 0) * kv.itemsize

        # Worker 1 contributes its own chunk's run via the self-stash.
        assert m1.send(seq=5, ci=1, part=1, run=run(1, 4), owner=1)
        got = m1.take_frame(seq=5, owned=[1], n_chunks=3, kv_dtype=kv)
        assert [len(row[0]) for row in got] == [0, 4, 3]  # chunk order
        assert got[1][0]["key"].tolist() == [100, 101, 102, 103]
        assert got[2][0]["key"].tolist() == [200, 201, 202]
        # Worker 0's own take: only its self-routed partition-0 record.
        got0 = m0.take_frame(seq=5, owned=[0], n_chunks=1, kv_dtype=kv)
        assert got0[0][0]["key"].tolist() == [0, 1]
    finally:
        m0.close()
        m1.close()


def test_worker_mesh_disjoint_chunks_and_frames_never_interleave():
    kv = np.dtype([("key", np.int32), ("val", np.float32)])
    m0, m1 = make_pair_mesh()
    try:
        def run(tag, n=2):
            r = np.zeros(n, dtype=kv)
            r["key"] = np.arange(n) + tag
            return r

        # Frame 1 and frame 2 records interleave on the wire (pipelined
        # frames do exactly this); per-seq stashes must keep them apart.
        assert m0.send(1, 0, 1, run(10), owner=1)
        assert m0.send(2, 0, 1, run(20), owner=1)
        assert m1.send(1, 1, 1, run(11), owner=1)  # self
        assert m1.send(2, 1, 1, run(21), owner=1)  # self
        f1 = m1.take_frame(1, owned=[1], n_chunks=2, kv_dtype=kv)
        assert f1[0][0]["key"].tolist() == [10, 11]
        assert f1[1][0]["key"].tolist() == [11, 12]
        f2 = m1.take_frame(2, owned=[1], n_chunks=2, kv_dtype=kv)
        assert f2[0][0]["key"].tolist() == [20, 21]
        assert f2[1][0]["key"].tolist() == [21, 22]
    finally:
        m0.close()
        m1.close()


def test_worker_mesh_oversized_record_reports_fallback():
    kv = np.dtype([("key", np.int32), ("val", np.float32)])
    m0, m1 = make_pair_mesh(capacity=128)
    try:
        big = np.zeros(100, dtype=kv)  # 800 B + header > 128 B edge
        assert not m0.send(3, 0, 1, big, owner=1)  # caller must relay
        # Relayed records land like any other and satisfy the watermark.
        m1.stash_relay(3, 0, 1, big)
        got = m1.take_frame(3, owned=[1], n_chunks=1, kv_dtype=kv)
        assert np.array_equal(got[0][0], big)
    finally:
        m0.close()
        m1.close()


def test_worker_mesh_watermark_times_out_on_missing_records():
    kv = np.dtype([("key", np.int32), ("val", np.float32)])
    m0, m1 = make_pair_mesh(timeout=0.1)
    try:
        assert m0.send(1, 0, 1, np.zeros(1, dtype=kv), owner=1)
        from repro.parallel import RingTimeout

        t0 = time.monotonic()
        with pytest.raises(RingTimeout, match="watermark"):
            m1.take_frame(1, owned=[1], n_chunks=2, kv_dtype=kv)
        assert time.monotonic() - t0 >= 0.1
    finally:
        m0.close()
        m1.close()


def test_worker_mesh_segments_unlinked_on_close():
    m0, m1 = make_pair_mesh()
    names = list(m0.inbound_names.values()) + list(m1.inbound_names.values())
    m0.close()
    m1.close()
    for name in names:
        assert not shm_segment_exists(name), f"leaked mesh edge {name}"


# -- generic pool jobs over the mesh -----------------------------------------
# The mappers/reducer and the job builder are the ones the executor
# parity suite already defines — same KV dtype, same placeholder
# semantics — so the two test layers cannot drift apart.
from test_parallel_executor import (  # noqa: E402
    KV,
    ExitMapper,
    ModSquareMapper,
    SumReducer,
    _generic_job as _job,
)


class SleepyMapper(ModSquareMapper):
    """Sleeps inside map for one specific chunk — a worker that is busy
    computing (not idle) and therefore cannot drain its inbound edges.

    Unlike its parent it emits *every* key (no placeholder discard):
    ModSquareMapper keeps only even data values, whose ``% 10`` keys are
    all even, which would leave the odd partitions — the traffic this
    test needs to wedge an edge with — completely empty.
    """

    def __init__(self, max_key, sleep_chunk, seconds):
        super().__init__(max_key)
        self.sleep_chunk = sleep_chunk
        self.seconds = seconds

    def map(self, chunk):
        from repro.core import MapOutput

        if chunk.id == self.sleep_chunk:
            time.sleep(self.seconds)
        data = chunk.payload()
        pairs = np.empty(len(data), dtype=KV)
        pairs["key"] = (
            data.astype(np.int64) % (self.max_key + 1)
        ).astype(np.int32)
        pairs["val"] = data.astype(np.float32) ** 2
        return MapOutput(
            pairs, work={"n_rays": len(data), "n_samples": 3 * len(data)}
        )


def assert_outputs_identical(a, b):
    assert len(a.outputs) == len(b.outputs)
    for (k1, v1), (k2, v2) in zip(a.outputs, b.outputs):
        assert np.array_equal(k1, k2) and np.array_equal(v1, v2)
    assert np.array_equal(a.pairs_per_reducer, b.pairs_per_reducer)
    assert a.stats.as_dict() == b.stats.as_dict()


def test_mesh_zero_run_bytes_through_parent_and_stats_schema():
    """The acceptance-criteria counter: with worker-side reduce on the
    mesh plane, the parent touches zero run bytes; the same job on the
    parent plane routes every byte through it."""
    spec, chunks = _job(ModSquareMapper(9))
    ref = InProcessExecutor().execute(spec, chunks)
    total_run_bytes = int(ref.pairs_per_reducer.sum()) * KV.itemsize

    with SharedMemoryPoolExecutor(
        workers=2, reduce_mode="worker", shuffle_mode="mesh"
    ) as pool:
        got = pool.execute(spec, chunks)
    assert_outputs_identical(ref, got)
    ring = got.stats.ring
    assert ring["shuffle_mode"] == "mesh"
    assert ring["parent_run_bytes"] == 0
    assert ring["queue_fallbacks"] == 0
    # Everything not self-routed crossed the mesh: headers + payload.
    assert ring["mesh_bytes_total"] > 0
    assert {"src", "dst", "stall_seconds", "stall_events", "high_water_bytes"} \
        <= set(ring["per_edge"][0])
    assert len(ring["per_edge"]) == 2  # N*(N-1) directed edges, N=2

    with SharedMemoryPoolExecutor(
        workers=2, reduce_mode="worker", shuffle_mode="parent"
    ) as pool:
        got = pool.execute(spec, chunks)
    assert_outputs_identical(ref, got)
    ring = got.stats.ring
    assert ring["shuffle_mode"] == "parent"
    assert ring["parent_run_bytes"] == total_run_bytes


def test_mesh_fallback_counts_and_parent_bytes():
    spec, chunks = _job(ModSquareMapper(9))
    ref = InProcessExecutor().execute(spec, chunks)
    with SharedMemoryPoolExecutor(
        workers=2, reduce_mode="worker", shuffle_mode="mesh",
        mesh_edge_capacity=64,  # no real run fits: all relayed
    ) as pool:
        got = pool.execute(spec, chunks)
    assert_outputs_identical(ref, got)
    ring = got.stats.ring
    assert ring["queue_fallbacks"] > 0
    assert ring["parent_run_bytes"] > 0  # the escape hatch is counted


def test_mesh_kill_reducer_owner_mid_shuffle():
    """The mesh-specific stress: a reducer-owning worker dies while its
    peers are still shuffling into its inbound edges.  The pool must
    detect it, tear down with zero leaked segments (including the dead
    worker's own edge rings), and retry bitwise on a fresh pool."""
    good_spec, chunks = _job(ModSquareMapper(9), n_chunks=4)
    # Worker 1 owns partition 1; chunk 1 is mapped on worker 1 and kills it.
    crash_spec, _ = _job(ExitMapper(kill_chunk=1), n_chunks=4)
    placement = [0, 1, 0, 1]
    ref = InProcessExecutor().execute(good_spec, chunks, placement)
    pool = SharedMemoryPoolExecutor(
        workers=2, reduce_mode="worker", shuffle_mode="mesh",
        supervise=False,  # pin legacy fail-fast teardown semantics
    )
    try:
        got = pool.execute(good_spec, chunks, placement)
        assert_outputs_identical(ref, got)
        names = [r.name for r in pool._state["rings"]]
        names += [r.name for r in pool._state["mesh_edges"].values()]
        names.append(pool._state["arena"].name)

        with pytest.raises(RuntimeError, match="died during execute"):
            pool.execute(crash_spec, chunks, placement)
        assert not pool.running
        for name in names:
            assert not shm_segment_exists(name), f"leaked segment {name}"

        got = pool.execute(good_spec, chunks, placement)
        assert_outputs_identical(ref, got)
    finally:
        pool.close()


def test_mesh_wedged_edge_times_out_and_tears_down():
    """A mapper blocked on a full edge whose owner is busy computing
    (not draining) must surface as a RingTimeout after the configured
    ring_write_timeout — tearing the pool down — instead of hanging."""
    # Worker 1 sleeps through its map while worker 0 shuffles ~11 KiB of
    # partition-1 records into a 4 KiB edge; each record (~1 KiB) fits
    # individually, so there is no queue fallback, only backpressure.
    # The volume exceeds 2x the edge capacity on purpose: worker 1 may
    # legitimately drain the edge once in its idle poll *before* it
    # starts the sleeping map task, and the write must still wedge.
    spec, chunks = _job(
        SleepyMapper(9, sleep_chunk=0, seconds=8.0),
        n_chunks=12, n_elems=256,
    )
    placement = [1] + [0] * 11
    pool = SharedMemoryPoolExecutor(
        workers=2, reduce_mode="worker", shuffle_mode="mesh",
        mesh_edge_capacity=4096, ring_write_timeout=0.25,
        supervise=False,  # pin legacy fail-fast teardown semantics
    )
    try:
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="map of chunk"):
            pool.execute(spec, chunks, placement)
        # Detection is ~0.25s + a bounded teardown (the 5s join grace on
        # the still-sleeping worker); anything near ring_write_timeout's
        # 300s default would mean the configured bound was ignored.
        assert time.monotonic() - t0 < 15.0
        assert not pool.running  # wedged edge => whole-pool teardown
        # Retry with a non-wedged job on the same executor: fresh pool,
        # same short timeout — the idle-owner drain keeps it live.
        good_spec, _ = _job(ModSquareMapper(9))
        ref = InProcessExecutor().execute(good_spec, chunks, placement)
        got = pool.execute(good_spec, chunks, placement)
        assert_outputs_identical(ref, got)
    finally:
        pool.close()


def test_cleanup_sweeps_edge_names_even_without_handshake():
    """Edge names are deterministic and recorded before any worker
    exists, so teardown unlinks a dead worker's already-created edges
    even when it never got to report them (death mid-handshake)."""
    from multiprocessing import shared_memory

    from repro.parallel.pool import _cleanup
    from repro.parallel.shuffle import mesh_edge_name

    created = mesh_edge_name("testdead", 0, 1)
    never_created = mesh_edge_name("testdead", 1, 0)
    seg = shared_memory.SharedMemory(create=True, size=128, name=created)
    seg.close()
    assert shm_segment_exists(created)
    # The parent knew both names up front; only one segment ever existed.
    _cleanup({"mesh_edge_names": [created, never_created]})
    assert not shm_segment_exists(created)
    assert not shm_segment_exists(never_created)


def test_mesh_edge_names_are_deterministic_and_swept_on_close():
    spec, chunks = _job(ModSquareMapper(9))
    pool = SharedMemoryPoolExecutor(
        workers=2, reduce_mode="worker", shuffle_mode="mesh"
    )
    try:
        pool.execute(spec, chunks)
        names = list(pool._state["mesh_edge_names"])
        assert len(names) == 2  # N*(N-1), N=2
        attached = sorted(r.name for r in pool._state["mesh_edges"].values())
        assert sorted(names) == attached  # workers used the assigned names
        for name in names:
            assert shm_segment_exists(name)
    finally:
        pool.close()
    for name in names:
        assert not shm_segment_exists(name), f"leaked edge {name}"


# -- NUMA / core pinning -----------------------------------------------------
def test_pin_workers_warns_when_cores_insufficient(monkeypatch):
    spec, chunks = _job(ModSquareMapper(9))
    ref = InProcessExecutor().execute(spec, chunks)
    # Force the undersized-affinity path regardless of the host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with SharedMemoryPoolExecutor(workers=2, pin_workers=True) as pool:
        with pytest.warns(RuntimeWarning, match="pin_workers"):
            got = pool.execute(spec, chunks)
    assert_outputs_identical(ref, got)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API"
)
def test_pin_workers_pins_when_possible():
    spec, chunks = _job(ModSquareMapper(9))
    ref = InProcessExecutor().execute(spec, chunks)
    # workers == 1 <= cores: pinning engages, results unchanged.
    with SharedMemoryPoolExecutor(
        workers=1, pin_workers=True, reduce_mode="worker", shuffle_mode="mesh"
    ) as pool:
        assert pool._worker_pins() == [sorted(os.sched_getaffinity(0))[0]]
        got = pool.execute(spec, chunks)
    assert_outputs_identical(ref, got)


def test_pin_workers_disabled_is_pinless():
    pool = SharedMemoryPoolExecutor(workers=max(2, usable_cores()))
    assert pool._worker_pins() == [None] * pool.workers
