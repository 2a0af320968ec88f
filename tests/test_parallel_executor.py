"""Tests for the shared-memory multiprocess brick executor.

The load-bearing property: :class:`SharedMemoryPoolExecutor` must be
**bitwise-indistinguishable** from :class:`InProcessExecutor` — outputs,
per-reducer routing, and every ``JobStats``/``MapStats``-derived counter
— across worker counts, brick layouts, and ERT settings, because worker
scheduling must never leak into the rendered image.  Multi-worker
variants beyond the tier-1 smoke set are marked ``slow``.
"""

import glob
import threading
import time
from collections import deque

import numpy as np
import pytest

from repro import MapReduceVolumeRenderer, make_dataset, orbit_camera
from repro.core import (
    Chunk,
    InProcessExecutor,
    KVSpec,
    MapOutput,
    Mapper,
    MapReduceSpec,
    PLACEHOLDER,
    Reducer,
    RoundRobinPartitioner,
    run_length_groups,
)
from repro.parallel import (
    ArenaSpec,
    ArenaView,
    RingTimeout,
    SharedMemoryPoolExecutor,
    ShmArena,
    ShmRing,
    shm_segment_exists,
    shuffle,
)
from repro.pipeline import orbit_path
from repro.render import RenderConfig, default_tf


# -- helpers -----------------------------------------------------------------
def make_scene(size=24, gpus=2, image=64, ert_alpha=0.98, placeholders=False):
    vol = make_dataset("skull", (size,) * 3)
    cam = orbit_camera(vol.shape, azimuth_deg=40.0, width=image, height=image)
    r = MapReduceVolumeRenderer(
        volume=vol,
        cluster=gpus,
        render_config=RenderConfig(
            dt=0.75, ert_alpha=ert_alpha, emit_placeholders=placeholders
        ),
    )
    return r, cam


def scene_job(r, cam, bricks_per_gpu=2):
    chunks = r._in_core_chunks(None, bricks_per_gpu)[1]
    ctg = [c.id % r.n_gpus for c in chunks]
    return chunks, ctg


def orbit_images(r, n_frames):
    """An orbit's images, ``r.frame_pipeline_depth`` frames in flight."""
    inflight, images = deque(), []
    for cam in orbit_path(r.volume_shape, n_frames, width=64, height=64):
        inflight.append(r.submit_frame(cam))
        if len(inflight) >= r.frame_pipeline_depth:
            images.append(r.collect_frame(inflight.popleft()).image)
    return images + [r.collect_frame(h).image for h in inflight]


def assert_results_identical(a, b):
    assert len(a.outputs) == len(b.outputs)
    for (k1, v1), (k2, v2) in zip(a.outputs, b.outputs):
        assert np.array_equal(k1, k2)
        assert np.array_equal(v1, v2)  # bitwise, not approx
    assert np.array_equal(a.pairs_per_reducer, b.pairs_per_reducer)
    assert a.stats.as_dict() == b.stats.as_dict()
    assert len(a.works) == len(b.works)
    for w1, w2 in zip(a.works, b.works):
        assert w1.chunk_id == w2.chunk_id
        assert w1.gpu == w2.gpu
        assert w1.upload_bytes == w2.upload_bytes
        assert w1.n_rays == w2.n_rays
        assert w1.n_samples == w2.n_samples
        assert w1.pairs_emitted == w2.pairs_emitted
        assert w1.read_from_disk == w2.read_from_disk
        assert np.array_equal(w1.pairs_to_reducer, w2.pairs_to_reducer)


def set_edge_bytes(monkeypatch, nbytes):
    """Size every mesh edge at ``nbytes``, whatever the pool width."""
    monkeypatch.setattr(shuffle, "MESH_BYTES", 0)
    monkeypatch.setattr(shuffle, "MIN_EDGE_BYTES", nbytes)


def shm_listing() -> set:
    return set(glob.glob("/dev/shm/*"))


def run_equivalence(workers, *, gpus=2, bricks_per_gpu=2, ert_alpha=0.98,
                    placeholders=False, **pool_kwargs):
    r, cam = make_scene(gpus=gpus, ert_alpha=ert_alpha, placeholders=placeholders)
    chunks, ctg = scene_job(r, cam, bricks_per_gpu)
    ref = InProcessExecutor().execute(r._spec(cam), chunks, ctg)
    with SharedMemoryPoolExecutor(workers=workers, **pool_kwargs) as pool:
        got = pool.execute(r._spec(cam), chunks, ctg)
    assert_results_identical(ref, got)


# -- pool vs in-process equivalence (tier-1 smoke set) -----------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_pool_matches_inprocess(workers):
    run_equivalence(workers)


# The kwargs the benchmark harness passes, spelled out: worker reduce over
# the explicitly named mesh must give the same bits as the defaults above.
@pytest.mark.parametrize("shuffle_mode", ["mesh"])
@pytest.mark.parametrize("workers", [1, 2])
def test_pool_worker_reduce_matches_inprocess(workers, shuffle_mode):
    run_equivalence(workers, reduce_mode="worker", shuffle_mode=shuffle_mode)


@pytest.mark.parametrize("shuffle_mode", ["mesh"])
def test_pool_worker_reduce_with_pipeline_depth_matches(shuffle_mode):
    run_equivalence(
        2, reduce_mode="worker", shuffle_mode=shuffle_mode, pipeline_depth=2
    )


@pytest.mark.parametrize("shuffle_mode", ["mesh"])
def test_pool_worker_reduce_more_reducers_than_workers(shuffle_mode):
    # gpus=3 -> 3 reducer partitions over 2 workers: worker 0 owns {0, 2}.
    run_equivalence(
        2, gpus=3, bricks_per_gpu=3, reduce_mode="worker",
        shuffle_mode=shuffle_mode,
    )


def test_pool_mesh_more_workers_than_reducers():
    # 4 workers over 2 partitions: workers 2 and 3 own nothing, get no
    # reduce message, and receive no mesh records — but still map.
    run_equivalence(4, gpus=2, bricks_per_gpu=2)


def test_pool_mesh_fallback_when_record_outgrows_edge(monkeypatch):
    # Edges too small for any real run force every record through the
    # parent-queue relay; results must be unchanged and counted.
    set_edge_bytes(monkeypatch, 64)
    run_equivalence(2)


def test_pool_rejects_bad_knobs():
    with pytest.raises(ValueError, match="unknown reduce_mode"):
        SharedMemoryPoolExecutor(workers=1, reduce_mode="gpu")
    with pytest.raises(ValueError, match="pipeline depth"):
        SharedMemoryPoolExecutor(workers=1, pipeline_depth=0)
    with pytest.raises(ValueError, match="unknown shuffle_mode"):
        SharedMemoryPoolExecutor(workers=1, shuffle_mode="broadcast")


def test_pool_matches_with_placeholders_and_no_ert():
    run_equivalence(2, ert_alpha=1.0, placeholders=True)


def test_pool_multi_frame_resident_arena():
    """Frames of an orbit republish nothing and stay bitwise identical."""
    r, _ = make_scene()
    with SharedMemoryPoolExecutor(workers=2) as pool:
        for az in (0.0, 120.0, 240.0):
            cam = orbit_camera(r.volume_shape, azimuth_deg=az, width=64, height=64)
            chunks, ctg = scene_job(r, cam)
            ref = InProcessExecutor().execute(r._spec(cam), chunks, ctg)
            got = pool.execute(r._spec(cam), chunks, ctg)
            assert_results_identical(ref, got)
        assert pool._arena_fingerprint is not None


def test_pool_counts_queue_fallbacks(monkeypatch):
    r, cam = make_scene()
    chunks, ctg = scene_job(r, cam)
    set_edge_bytes(monkeypatch, 64)
    with SharedMemoryPoolExecutor(workers=2) as pool:
        got = pool.execute(r._spec(cam), chunks, ctg)
    assert got.stats.ring is not None
    # Every non-empty record sent to the other worker outgrows a 64 B
    # edge; records a worker owns itself never touch an edge.
    assert 1 <= got.stats.ring["queue_fallbacks"] <= len(chunks) * r.n_gpus
    assert got.stats.ring["ring_capacity"] == 64


def test_pipelined_orbit_smoke_bitwise():
    """Tier-1 smoke: a depth-2 worker-reduce orbit is bitwise-identical
    to the serial orbit, frame for frame."""
    r_ref, _ = make_scene()
    ref = orbit_images(r_ref, 3)
    with MapReduceVolumeRenderer(
        volume=r_ref.volume,
        cluster=2,
        render_config=r_ref.render_config,
        executor="pool",
        workers=2,
        pipeline_depth=2,
    ) as r:
        assert r.frame_pipeline_depth == 2
        images = orbit_images(r, 3)
    assert len(images) == len(ref) == 3
    for img, img_ref in zip(images, ref):
        assert np.array_equal(img, img_ref)


def test_pipelined_out_of_core_orbit_matches_serial():
    """Out-of-core frames through the submit/collect pipeline: chunk
    loads feed the arena at submit time (the prefetch path) and results
    stay bitwise-identical to the serial executor's."""
    r, _ = make_scene()
    cams = [
        orbit_camera(r.volume_shape, azimuth_deg=a, width=64, height=64)
        for a in (0.0, 120.0, 240.0)
    ]
    chunks, ctg = scene_job(r, cams[0])
    loaded = [
        Chunk(id=c.id, nbytes=c.nbytes, loader=lambda c=c: c.data, on_disk=True, meta=c.meta)
        for c in chunks
    ]
    refs = [InProcessExecutor().execute(r._spec(c), loaded, ctg) for c in cams]
    with SharedMemoryPoolExecutor(workers=2, pipeline_depth=2) as pool:
        handles = [pool.submit(r._spec(c), loaded, ctg) for c in cams]
        got = [pool.collect(h) for h in handles]
    for ref, result in zip(refs, got):
        assert_results_identical(ref, result)


def test_submit_collect_out_of_order_and_depth_cap():
    """Collecting a newer handle first completes the older ones; the
    depth cap force-collects the oldest at submit time."""
    r, _ = make_scene()
    cams = [
        orbit_camera(r.volume_shape, azimuth_deg=a, width=64, height=64)
        for a in (0.0, 120.0, 240.0)
    ]
    chunks, ctg = scene_job(r, cams[0])
    refs = [InProcessExecutor().execute(r._spec(c), chunks, ctg) for c in cams]
    with SharedMemoryPoolExecutor(workers=2, pipeline_depth=2) as pool:
        handles = [pool.submit(r._spec(c), chunks, ctg) for c in cams]
        # Depth 2: submitting the 3rd frame must have force-collected the 1st.
        assert handles[0].done and not handles[2].done
        got_last = pool.collect(handles[2])  # completes #1 on the way
        assert handles[1].done
        assert_results_identical(refs[2], got_last)
        assert_results_identical(refs[0], pool.collect(handles[0]))
        assert_results_identical(refs[1], pool.collect(handles[1]))


def test_renderer_pool_image_identical():
    r_ref, cam = make_scene()
    img_ref = r_ref.render(cam).image
    vol = r_ref.volume
    with MapReduceVolumeRenderer(
        volume=vol,
        cluster=2,
        render_config=r_ref.render_config,
        executor="pool",
        workers=2,
    ) as r_pool:
        img_pool = r_pool.render(cam).image
        img_pool2 = r_pool.render(cam).image  # warm arena + caches
    assert np.array_equal(img_ref, img_pool)
    assert np.array_equal(img_ref, img_pool2)


# -- full matrix (slow) ------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("gpus,bricks_per_gpu", [(1, 2), (2, 2), (4, 1), (3, 3)])
@pytest.mark.parametrize("ert_alpha", [1.0, 0.98, 0.5])
def test_pool_matches_inprocess_matrix(workers, gpus, bricks_per_gpu, ert_alpha):
    run_equivalence(
        workers, gpus=gpus, bricks_per_gpu=bricks_per_gpu, ert_alpha=ert_alpha
    )


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("pipeline_depth", [1, 2, 3])
@pytest.mark.parametrize("gpus,bricks_per_gpu", [(2, 2), (3, 3)])
def test_pool_pipeline_depth_matrix(workers, pipeline_depth, gpus, bricks_per_gpu):
    run_equivalence(
        workers,
        gpus=gpus,
        bricks_per_gpu=bricks_per_gpu,
        pipeline_depth=pipeline_depth,
    )


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pipelined_orbit_matches_serial_matrix(workers):
    r_ref, _ = make_scene()
    ref = orbit_images(r_ref, 4)
    with MapReduceVolumeRenderer(
        volume=r_ref.volume,
        cluster=2,
        render_config=r_ref.render_config,
        executor="pool",
        workers=workers,
        pipeline_depth=2,
    ) as r:
        images = orbit_images(r, 4)
    assert len(images) == len(ref) == 4
    for img, img_ref in zip(images, ref):
        assert np.array_equal(img, img_ref)


# -- generic (non-render) jobs through the pool ------------------------------
KV = np.dtype([("key", np.int32), ("val", np.float32)])


class ModSquareMapper(Mapper):
    """Synthetic mapper (module-level: must be picklable for the pool)."""

    def __init__(self, max_key):
        self.max_key = max_key

    def map(self, chunk):
        data = chunk.payload()
        pairs = np.empty(len(data), dtype=KV)
        keys = (data.astype(np.int64) % (self.max_key + 1)).astype(np.int32)
        keys[data % 2 == 1] = PLACEHOLDER
        pairs["key"] = keys
        pairs["val"] = data.astype(np.float32) ** 2
        return MapOutput(pairs, work={"n_rays": len(data), "n_samples": 3 * len(data)})


class SumReducer(Reducer):
    def reduce_all(self, pairs):
        keys, starts, _ = run_length_groups(pairs["key"])
        sums = np.add.reduceat(pairs["val"], starts) if len(keys) else np.zeros(0)
        return keys, sums


def test_pool_runs_generic_mapreduce_job():
    rng = np.random.default_rng(7)
    chunks = [
        Chunk(id=i, nbytes=d.nbytes, data=d)
        for i, d in enumerate(
            rng.integers(0, 100, 64).astype(np.int64) for _ in range(5)
        )
    ]
    spec = MapReduceSpec(
        mapper=ModSquareMapper(9),
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(3),
        kv=KVSpec(KV),
        max_key=9,
    )
    ref = InProcessExecutor().execute(spec, chunks, [0, 1, 0, 1, 0])
    with SharedMemoryPoolExecutor(workers=2) as pool:
        got = pool.execute(spec, chunks, [0, 1, 0, 1, 0])
    assert_results_identical(ref, got)


class BoomMapper(Mapper):
    def map(self, chunk):
        raise RuntimeError("boom in worker")


def test_pool_propagates_worker_errors_and_resets():
    chunks = [Chunk(id=0, nbytes=8, data=np.zeros(1, np.int64))]
    spec = MapReduceSpec(
        mapper=BoomMapper(),
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(1),
        kv=KVSpec(KV),
        max_key=9,
    )
    with SharedMemoryPoolExecutor(workers=1) as pool:
        with pytest.raises(RuntimeError, match="boom in worker"):
            pool.execute(spec, chunks)
        # A failed map task may leave partial fragment records in the
        # mesh, so the pool tears itself down rather than risk serving
        # misaligned bytes; a retry starts from a fresh pool.
        assert not pool.running
        good = MapReduceSpec(
            mapper=ModSquareMapper(9),
            reducer=SumReducer(),
            partitioner=RoundRobinPartitioner(1),
            kv=KVSpec(KV),
            max_key=9,
        )
        data = np.arange(10, dtype=np.int64) * 2
        ref = InProcessExecutor().execute(
            good, [Chunk(id=0, nbytes=data.nbytes, data=data)]
        )
        got = pool.execute(good, [Chunk(id=0, nbytes=data.nbytes, data=data)])
        assert_results_identical(ref, got)


def _generic_job(mapper, n_chunks=4, n_reducers=2, seed=13, n_elems=32):
    rng = np.random.default_rng(seed)
    datas = [
        rng.integers(0, 100, n_elems).astype(np.int64)
        for _ in range(n_chunks)
    ]
    chunks = [
        Chunk(id=i, nbytes=d.nbytes, data=d) for i, d in enumerate(datas)
    ]
    spec = MapReduceSpec(
        mapper=mapper,
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(n_reducers),
        kv=KVSpec(KV),
        max_key=9,
    )
    return spec, chunks


def _all_segment_names(pool) -> list:
    """Every shared-memory segment the pool currently holds: the arena
    and all N×N mesh edge rings."""
    names = [pool._state["arena"].name]
    names.extend(r.name for r in pool._state.get("mesh_edges", {}).values())
    return names


@pytest.mark.parametrize("reduce_mode,shuffle_mode", [("worker", "mesh")])
def test_pool_worker_crash_mid_frame_teardown_and_retry(reduce_mode, shuffle_mode):
    """Kill a worker mid-frame: the pool must tear the failed transport
    epoch down cleanly (no leaked shared-memory segments — including
    worker-created mesh edges) and retry the frame on a fresh wave, with
    no stale edge bytes: the recovered frame is bitwise.

    The kill is an injected crash (no cleanup, the way a segfault or OOM
    kill looks) of worker 0 as it maps chunk 2 of the second frame; the
    respawned wave is generation 1, so the rule does not fire again.
    """
    spec, chunks = _generic_job(ModSquareMapper(9))
    placement = [0, 1, 0, 1]
    ref = InProcessExecutor().execute(spec, chunks, placement)
    before = shm_listing()
    pool = SharedMemoryPoolExecutor(
        workers=2, reduce_mode=reduce_mode, shuffle_mode=shuffle_mode,
        fault_plan="crash@map:worker=0,frame=2,chunk=2",
    )
    try:
        # Warm frame: creates rings + arena whose names we can audit.
        got = pool.execute(spec, chunks, placement)
        assert_results_identical(ref, got)
        assert got.stats.recovery is None
        edges = [r.name for r in pool._state["mesh_edges"].values()]
        assert len(edges) == 2  # 2 workers -> 2 edges

        got = pool.execute(spec, chunks, placement)
        assert_results_identical(ref, got)
        assert got.stats.recovery["respawns"] == 1
        assert got.stats.recovery["retries_by_stage"] == {"death": 1}
        # The failed epoch's edges are gone; the fresh wave made its own.
        for name in edges:
            assert not shm_segment_exists(name), f"leaked segment {name}"
        assert_results_identical(ref, pool.execute(spec, chunks, placement))
    finally:
        pool.close()
    assert shm_listing() - before == set()


@pytest.mark.slow
def test_pool_crash_soak_pipelined():
    """Soak: interleave pipelined frames with a mid-flight user-code
    error repeatedly.  Each error tears the pool down with a frame still
    in flight; that frame's handle must then either hold bitwise-correct
    results or refuse to be collected, every shared-memory segment must
    be released, and the next frame must run bitwise on a fresh pool."""
    good_spec, chunks = _generic_job(ModSquareMapper(9), n_chunks=6)
    boom_spec, _ = _generic_job(BoomMapper(), n_chunks=6)
    ref = InProcessExecutor().execute(good_spec, chunks)
    with SharedMemoryPoolExecutor(workers=2, pipeline_depth=2) as pool:
        for _ in range(3):
            h1 = pool.submit(good_spec, chunks)
            h2 = pool.submit(good_spec, chunks)
            assert_results_identical(ref, pool.collect(h1))
            names = _all_segment_names(pool)
            with pytest.raises(RuntimeError, match="boom in worker"):
                pool.collect(pool.submit(boom_spec, chunks))
            assert not pool.running
            # h2 was in flight when the pool went down.  Depending on
            # whether its (already queued) results drained before the
            # error was read, it either completed bitwise-correct or
            # aborted — but it must never return wrong data or hang.
            if h2.done:
                assert_results_identical(ref, pool.collect(h2))
            else:
                with pytest.raises(RuntimeError, match="aborted"):
                    pool.collect(h2)
            for name in names:
                assert not shm_segment_exists(name), f"leaked segment {name}"
            assert_results_identical(ref, pool.execute(good_spec, chunks))


class BoomReducer(SumReducer):
    def reduce_all(self, pairs):
        raise RuntimeError("boom in reduce")


def test_worker_reduce_errors_name_the_reduce_stage():
    spec, chunks = _generic_job(ModSquareMapper(9))
    spec.reducer = BoomReducer()
    with SharedMemoryPoolExecutor(workers=1) as pool:
        with pytest.raises(RuntimeError, match="reduce of partitions"):
            pool.execute(spec, chunks)
        assert not pool.running  # failed frames always tear the pool down


def test_stale_aborted_handle_does_not_kill_restarted_pool():
    """Collecting a handle that died with an earlier pool incarnation
    must raise — without tearing down the healthy pool running now."""
    good_spec, chunks = _generic_job(ModSquareMapper(9))
    ref = InProcessExecutor().execute(good_spec, chunks)
    with SharedMemoryPoolExecutor(workers=2, pipeline_depth=2) as pool:
        stale = pool.submit(good_spec, chunks)
        pool.close()  # aborts the in-flight frame
        assert not stale.done
        # Restart: a new frame in flight on a fresh pool...
        live = pool.submit(good_spec, chunks)
        assert pool.running
        # ...the stale handle errors but leaves the new pool untouched.
        with pytest.raises(RuntimeError, match="aborted"):
            pool.collect(stale)
        assert pool.running
        assert_results_identical(ref, pool.collect(live))


def test_pool_handles_empty_chunk_list():
    spec = MapReduceSpec(
        mapper=ModSquareMapper(9),
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(2),
        kv=KVSpec(KV),
        max_key=9,
    )
    ref = InProcessExecutor().execute(spec, [])
    with SharedMemoryPoolExecutor(workers=2) as pool:
        got = pool.execute(spec, [])
    assert_results_identical(ref, got)
    assert got.works == []


def test_pool_rejects_duplicate_chunk_ids():
    d = np.zeros(2, np.int64)
    chunks = [Chunk(id=0, nbytes=d.nbytes, data=d)] * 2
    spec = MapReduceSpec(
        mapper=ModSquareMapper(9),
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(1),
        kv=KVSpec(KV),
        max_key=9,
    )
    with SharedMemoryPoolExecutor(workers=1) as pool:
        with pytest.raises(ValueError, match="unique"):
            pool.execute(spec, chunks)


# -- ring buffer -------------------------------------------------------------
def test_ring_roundtrip_and_wraparound():
    with ShmRing.create(capacity=64) as ring:
        # Fill/drain repeatedly with sizes that force the cursor to wrap
        # at misaligned offsets.
        sent = received = b""
        payload = bytes(range(48))
        for i in range(20):
            piece = payload[: 17 + (i * 7) % 30]
            ring.write_bytes(piece, timeout=1.0)
            sent += piece
            got = ring.read_bytes(len(piece), timeout=1.0)
            received += bytes(got)
        assert received == sent
        assert ring.used == 0


def test_ring_records_roundtrip():
    dt = np.dtype([("k", np.int32), ("v", np.float32)])
    arr = np.zeros(10, dtype=dt)
    arr["k"] = np.arange(10)
    arr["v"] = np.linspace(0, 1, 10, dtype=np.float32)
    with ShmRing.create(capacity=37) as ring:  # < arr.nbytes: stream in pieces
        out = []

        def consume():
            for _ in range(len(arr)):
                raw = ring.read_bytes(dt.itemsize, timeout=5.0)
                out.append(np.frombuffer(raw, dtype=dt))

        consumer = threading.Thread(target=consume)
        consumer.start()
        # Producer streams record-sized pieces; consumer drains them.
        for rec in arr:
            ring.write_bytes(rec.tobytes(), timeout=5.0)
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert np.array_equal(np.concatenate(out), arr)


def test_ring_blocks_producer_until_consumed():
    with ShmRing.create(capacity=16) as ring:
        ring.write_bytes(b"x" * 16, timeout=1.0)
        t0 = time.monotonic()
        with pytest.raises(RingTimeout):
            ring.write_bytes(b"y", timeout=0.05)
        assert time.monotonic() - t0 >= 0.05
        # Draining unblocks the producer.
        drain = threading.Thread(
            target=lambda: (time.sleep(0.02), ring.read_bytes(16, timeout=1.0))
        )
        drain.start()
        ring.write_bytes(b"y" * 8, timeout=2.0)
        drain.join(timeout=2.0)
        assert bytes(ring.read_bytes(8, timeout=1.0)) == b"y" * 8


def test_ring_validation():
    with ShmRing.create(capacity=8) as ring:
        with pytest.raises(ValueError):
            ring.write_bytes(b"123456789")  # > capacity
        with pytest.raises(ValueError):
            ring.read_bytes(9)
        with pytest.raises(ValueError):
            ring.read_bytes(-1)
    with pytest.raises(ValueError):
        ShmRing.create(capacity=0)


def test_ring_backpressure_counters():
    """Stall time/events and the high-water mark move exactly when the
    producer actually blocks on a full ring."""
    with ShmRing.create(capacity=16) as ring:
        assert ring.counters() == {
            "stall_seconds": 0.0,
            "stall_events": 0,
            "high_water_bytes": 0,
            "written_bytes": 0,
        }
        ring.write_bytes(b"x" * 10, timeout=1.0)
        assert ring.high_water == 10
        assert ring.stall_events == 0  # fit without waiting
        ring.read_bytes(10, timeout=1.0)
        ring.write_bytes(b"y" * 16, timeout=1.0)
        assert ring.high_water == 16  # monotonic max of occupancy

        # Now force a real stall: the ring is full, a consumer drains it
        # only after a delay, so the producer must block measurably.
        drain = threading.Thread(
            target=lambda: (time.sleep(0.05), ring.read_bytes(16, timeout=2.0))
        )
        drain.start()
        ring.write_bytes(b"z" * 8, timeout=2.0)
        drain.join(timeout=2.0)
        assert ring.stall_events == 1
        assert ring.stall_seconds >= 0.03
        # A reader never bumps producer counters.
        ring.read_bytes(8, timeout=1.0)
        assert ring.stall_events == 1


def test_pool_exports_ring_backpressure_into_jobstats(monkeypatch):
    """Small mesh edges + an artificially slow edge reader must register
    producer stalls, and the exported counters must actually move —
    without changing the results."""
    rng = np.random.default_rng(11)
    datas = [rng.integers(0, 100, 128).astype(np.int64) for _ in range(8)]
    chunks = [
        Chunk(id=i, nbytes=d.nbytes, data=d) for i, d in enumerate(datas)
    ]
    spec = MapReduceSpec(
        mapper=ModSquareMapper(9),
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(2),
        kv=KVSpec(KV),
        max_key=9,
    )
    ref = InProcessExecutor().execute(spec, chunks)

    # Slow every edge read.  The pool forks its workers after this
    # patch, so the readers inherit it: each record a peer sends waits
    # for a sleeping consumer, and the writer must block on its full
    # edge.
    real_read = ShmRing.read_bytes

    def slow_read(self, n, timeout=30.0):
        time.sleep(0.01)
        return real_read(self, n, timeout)

    monkeypatch.setattr(ShmRing, "read_bytes", slow_read)
    # Every kept key is even, so partition 0 (worker 0's) gets every
    # pair: worker 1 sends each of its chunks as one record of a 32 B
    # header plus ~64 pairs of 8 B, and an 800 B edge holds only one.
    set_edge_bytes(monkeypatch, 800)
    with SharedMemoryPoolExecutor(workers=2) as pool:
        got = pool.execute(spec, chunks)
    assert_results_identical(ref, got)
    ring_stats = got.stats.ring
    assert ring_stats is not None
    assert ring_stats["stall_events"] >= 1
    assert ring_stats["stall_seconds"] > 0.0
    assert 0 < ring_stats["high_water_bytes"] <= 800
    assert ring_stats["queue_fallbacks"] == 0
    assert [(e["src"], e["dst"]) for e in ring_stats["per_edge"]] == [
        (0, 1), (1, 0)
    ]
    assert sum(e["stall_events"] for e in ring_stats["per_edge"]) == (
        ring_stats["stall_events"]
    )


def test_ring_attach_and_cross_close():
    ring = ShmRing.create(capacity=128, record_size=24)
    other = ShmRing.attach(ring.name)
    assert other.capacity == 128
    assert other.record_size == 24
    other.write_bytes(b"hello")
    assert bytes(ring.read_bytes(5)) == b"hello"
    name = ring.name
    other.close()  # attachment never unlinks
    assert shm_segment_exists(name)
    ring.close()
    ring.close()  # idempotent
    assert not shm_segment_exists(name)


# -- shared-memory arena -----------------------------------------------------
def test_arena_publish_attach_and_cleanup():
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    b = np.arange(6, dtype=np.int64)
    arena = ShmArena({"a": a, 7: b})
    assert isinstance(arena.spec, ArenaSpec)
    view = ArenaView(arena.spec)
    assert np.array_equal(view.array("a"), a)
    assert np.array_equal(view.array(7), b)
    assert not view.array("a").flags.writeable  # published data is immutable
    assert "a" in view and "missing" not in view
    name = arena.name
    view.close()
    arena.close()
    arena.close()  # idempotent
    assert not shm_segment_exists(name)


def test_arena_rejects_empty():
    with pytest.raises(ValueError):
        ShmArena({})


@pytest.mark.parametrize(
    "pool_kwargs", [dict(reduce_mode="worker", shuffle_mode="mesh")],
    ids=["mesh"],
)
def test_pool_releases_all_segments_on_close(pool_kwargs):
    r, cam = make_scene()
    chunks, ctg = scene_job(r, cam)
    pool = SharedMemoryPoolExecutor(workers=2, **pool_kwargs)
    pool.execute(r._spec(cam), chunks, ctg)
    names = _all_segment_names(pool)
    pool.close()
    for name in names:
        assert not shm_segment_exists(name), f"leaked segment {name}"
    pool.close()  # idempotent


def test_camera_pickle_excludes_ray_grid_cache():
    # The pool pickles a camera per frame; the lazily-built full-viewport
    # direction grid must not ride along.
    import pickle

    cam = orbit_camera((16, 16, 16), width=64, height=64)
    full = [(0, 0, 64, 64)]
    cam.footprint_rays_f32(full)  # populate the cache
    assert "_dirs32_grid" in cam.__dict__
    clone = pickle.loads(pickle.dumps(cam))
    assert "_dirs32_grid" not in clone.__dict__
    # The clone still renders identically (cache rebuilt lazily).
    d1, k1, _ = cam.footprint_rays_f32(full)
    d2, k2, _ = clone.footprint_rays_f32(full)
    assert np.array_equal(d1, d2) and np.array_equal(k1, k2)

