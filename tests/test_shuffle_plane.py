"""Tests for the shuffle mesh (`repro.parallel.shuffle`).

The executor-parity and golden suites already pin that the pool is
bitwise-indistinguishable from the in-process executor; this layer
tests the mesh machinery itself: the ShuffleSpec ownership/routing
contract, the mesh record protocol and per-frame watermarks, transport
configuration (the edge sizing and timeout constants, the removed mode
values), the control-plane guarantee (zero run bytes through the
parent), and the mesh failure modes — a reducer-owner dying
mid-shuffle and a wedged edge — which must recycle the transport with
zero leaked shared-memory segments and retry the frame bitwise.
"""

import time

import numpy as np
import pytest

from repro.core import InProcessExecutor, ShuffleSpec
from repro.parallel import (
    SharedMemoryPoolExecutor,
    WorkerMesh,
    shm_segment_exists,
    shuffle,
)
from repro.parallel.shuffle import MESH_HEADER_NBYTES, edge_capacity


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
def test_edge_capacity_splits_the_mesh_bytes():
    # 8 MiB split over the workers, floor 64 KiB: the benchmark's
    # 2-worker pool runs 4 MiB edges.
    assert edge_capacity(2) == 4 << 20
    assert edge_capacity(4) == 2 << 20
    assert edge_capacity(256) == 1 << 16


def test_executor_resolves_transport_at_construction(monkeypatch):
    # The values the benchmark harness still passes are accepted, and
    # every one of them runs the mesh.
    for kwargs in (dict(), dict(reduce_mode="worker", shuffle_mode="auto"),
                   dict(shuffle_mode="mesh")):
        ex = SharedMemoryPoolExecutor(workers=2, **kwargs)
        assert ex.effective_shuffle_mode == "mesh"
        assert ex.mesh_edge_capacity == 4 << 20
    # Every frame runs on these values: ring-write and watermark
    # timeouts, retry budget, backoff.
    assert (ex.ring_write_timeout, ex.watermark_timeout,
            ex.max_frame_retries, ex.retry_backoff) == (300.0, 300.0, 2, 0.05)
    # The constants are read once, at construction.
    monkeypatch.setattr(shuffle, "RING_WRITE_TIMEOUT", 9.0)
    assert SharedMemoryPoolExecutor(workers=1).ring_write_timeout == 9.0
    assert ex.ring_write_timeout == 300.0


def test_mesh_fd_headroom_guard(monkeypatch):
    """On hosts where the parent's O(N²) edge attachments would blow the
    fd soft limit, the pool fails fast at construction with guidance
    instead of EMFILE mid-handshake — there is no other plane to fall
    back to."""
    import resource

    from repro.parallel.shuffle import mesh_fd_headroom

    fits, needed, _ = mesh_fd_headroom(2)
    assert needed == 2 * 1 + 4 * 2 + 64
    # A soft limit of 140 leaves 70 for the pool: one worker needs 68,
    # two need 74.
    monkeypatch.setattr(resource, "getrlimit", lambda which: (140, 4096))
    assert mesh_fd_headroom(2) == (False, 74, 140)
    assert mesh_fd_headroom(1) == (True, 68, 140)
    with pytest.raises(ValueError, match="RLIMIT_NOFILE"):
        SharedMemoryPoolExecutor(workers=2)
    SharedMemoryPoolExecutor(workers=1)


def test_renderer_rejects_bad_shuffle_mode():
    from repro import MapReduceVolumeRenderer

    with pytest.raises(ValueError, match="unknown shuffle_mode"):
        MapReduceVolumeRenderer(volume_shape=(8, 8, 8), executor="pool", shuffle_mode="ring")


REMOVED_MODES = [
    ("reduce_mode", "parent"),
    ("shuffle_mode", "parent"),
    ("shuffle_mode", "tcp"),
]


@pytest.mark.parametrize("name,value", REMOVED_MODES)
def test_removed_modes_raise_at_every_surface(name, value, capsys):
    """Every removed mode value raises ``ValueError`` naming the removal
    at the pool kwarg and the renderer kwarg, and is a usage error
    naming it at the CLI; the CLI no longer has a ``--shuffle-mode``
    flag at all."""
    from repro import MapReduceVolumeRenderer
    from repro.cli import build_parser, main

    match = f"{name}={value!r} was removed"
    with pytest.raises(ValueError, match=match):
        SharedMemoryPoolExecutor(workers=2, **{name: value})
    with pytest.raises(ValueError, match=match):
        MapReduceVolumeRenderer(
            volume_shape=(8, 8, 8), executor="pool", **{name: value}
        )
    if name == "reduce_mode":
        with pytest.raises(SystemExit) as exit_info:
            main(["render", "--size", "8", "--image", "8",
                  "--executor", "pool", "--reduce-mode", value])
        assert exit_info.value.code == 2
        assert match in capsys.readouterr().err
    else:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "--shuffle-mode", value])


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
    ModSquareMapper,
    SumReducer,
    _generic_job as _job,
    set_edge_bytes,
    shm_listing,
)


class EveryKeyMapper(ModSquareMapper):
    """Emits *every* key (no placeholder discard): ModSquareMapper keeps
    only even data values, whose ``% 10`` keys are all even, which would
    leave the odd partitions — the traffic the wedge test needs to fill
    an edge with — completely empty.
    """

    def map(self, chunk):
        from repro.core import MapOutput

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
    """The acceptance-criteria counter: on the mesh the parent touches
    zero run bytes."""
    spec, chunks = _job(ModSquareMapper(9))
    ref = InProcessExecutor().execute(spec, chunks)

    with SharedMemoryPoolExecutor(workers=2) as pool:
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


def test_mesh_fallback_counts_and_parent_bytes(monkeypatch):
    spec, chunks = _job(ModSquareMapper(9))
    ref = InProcessExecutor().execute(spec, chunks)
    set_edge_bytes(monkeypatch, 64)  # no real run fits: all relayed
    with SharedMemoryPoolExecutor(workers=2) as pool:
        got = pool.execute(spec, chunks)
    assert_outputs_identical(ref, got)
    ring = got.stats.ring
    assert ring["queue_fallbacks"] > 0
    assert ring["parent_run_bytes"] > 0  # the escape hatch is counted


def test_mesh_kill_reducer_owner_mid_shuffle():
    """The mesh-specific stress: a reducer-owning worker dies while its
    peers are still shuffling into its inbound edges.  The pool must
    detect it, recycle the transport with zero leaked segments
    (including the dead worker's own edge rings), and re-execute the
    frame bitwise on a fresh wave."""
    spec, chunks = _job(ModSquareMapper(9), n_chunks=4)
    # Worker 1 owns partition 1; chunk 1 of frame 2 is mapped on worker 1
    # and kills it.
    placement = [0, 1, 0, 1]
    ref = InProcessExecutor().execute(spec, chunks, placement)
    before = shm_listing()
    pool = SharedMemoryPoolExecutor(
        workers=2, fault_plan="crash@map:worker=1,frame=2,chunk=1",
    )
    try:
        got = pool.execute(spec, chunks, placement)
        assert_outputs_identical(ref, got)
        edges = [r.name for r in pool._state["mesh_edges"].values()]

        got = pool.execute(spec, chunks, placement)
        assert_outputs_identical(ref, got)
        assert got.stats.recovery["failures"] == 1
        assert got.stats.recovery["frames_reexecuted"] == 1
        for name in edges:
            assert not shm_segment_exists(name), f"leaked segment {name}"
    finally:
        pool.close()
    assert shm_listing() - before == set()


def test_mesh_wedged_edge_times_out_and_tears_down(monkeypatch):
    """A mapper blocked on a full edge whose owner is busy (not
    draining) must surface as a RingTimeout after
    ``RING_WRITE_TIMEOUT`` instead of hanging; the wedged transport is
    torn down and the frame re-executed bitwise on a fresh wave."""
    # Worker 1 stalls before its map while worker 0 shuffles ~11 KiB of
    # partition-1 records into a 4 KiB edge; each record (~1 KiB) fits
    # individually, so there is no queue fallback, only backpressure.
    # The volume exceeds 2x the edge capacity on purpose: worker 1 may
    # legitimately drain the edge once in its idle poll *before* it
    # starts the stalled map task, and the write must still wedge.
    spec, chunks = _job(EveryKeyMapper(9), n_chunks=12, n_elems=256)
    placement = [1] + [0] * 11
    ref = InProcessExecutor().execute(spec, chunks, placement)
    set_edge_bytes(monkeypatch, 4096)
    monkeypatch.setattr(shuffle, "RING_WRITE_TIMEOUT", 0.25)
    monkeypatch.setattr(shuffle, "WATERMARK_TIMEOUT", 0.25)
    before = shm_listing()
    pool = SharedMemoryPoolExecutor(
        workers=2, fault_plan="stall(30)@map:worker=1,frame=1",
    )
    try:
        t0 = time.monotonic()
        got = pool.execute(spec, chunks, placement)
        # Detection is ~0.25s + a bounded teardown of the stalled
        # worker; anything near the 30 s stall would mean the bound was
        # ignored.  The fresh wave runs on the same short timeout: the
        # idle-owner drain keeps it live.
        assert time.monotonic() - t0 < 15.0
        assert_outputs_identical(ref, got)
        recovery = got.stats.recovery
        assert recovery["respawns"] == 1
        assert recovery["retries_by_stage"] == {"shuffle-out": 1}
    finally:
        pool.close()
    assert shm_listing() - before == set()


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
        workers=2)
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
