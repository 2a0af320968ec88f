"""Tests for the functional executor and the simulated scheduler, using a
small synthetic MapReduce job (histogram fold) independent of rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockPartitioner,
    Chunk,
    Combiner,
    InProcessExecutor,
    JobConfig,
    KVSpec,
    MapOutput,
    Mapper,
    MapReduceSpec,
    MapWork,
    PLACEHOLDER,
    Reducer,
    RoundRobinPartitioner,
    TiledPartitioner,
    run_length_groups,
)
from repro.core.executors import (
    PartitionReduceSpec,
    map_chunk_to_runs,
    map_chunks_to_runs,
    merge_partition_runs,
)
from repro.sim import SimClusterExecutor, accelerator_cluster

KV = np.dtype([("key", np.int32), ("val", np.float32)])


class SquareMapper(Mapper):
    """Emits (value mod K, value^2) per element; odd inputs emit placeholders."""

    def __init__(self, max_key):
        self.max_key = max_key
        self.initialized = False

    def initialize(self, device=None):
        self.initialized = True

    def map(self, chunk):
        data = chunk.payload()
        pairs = np.empty(len(data), dtype=KV)
        keys = (data.astype(np.int64) % (self.max_key + 1)).astype(np.int32)
        odd = data % 2 == 1
        keys[odd] = PLACEHOLDER  # restriction #4: every thread emits
        pairs["key"] = keys
        pairs["val"] = data.astype(np.float32) ** 2
        return MapOutput(pairs, work={"n_rays": len(data), "n_samples": len(data) * 3})


class SumReducer(Reducer):
    def reduce_all(self, pairs):
        keys, starts, counts = run_length_groups(pairs["key"])
        sums = np.add.reduceat(pairs["val"], starts) if len(keys) else np.zeros(0)
        return keys, sums


def build_spec(n_reducers=3, max_key=9):
    return MapReduceSpec(
        mapper=SquareMapper(max_key),
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(n_reducers),
        kv=KVSpec(KV),
        max_key=max_key,
    )


def make_chunks(n_chunks=4, elems=50, seed=0):
    rng = np.random.default_rng(seed)
    chunks = []
    for i in range(n_chunks):
        data = rng.integers(0, 100, elems).astype(np.int64) * 2  # even → all kept
        chunks.append(Chunk(id=i, nbytes=data.nbytes, data=data))
    return chunks


def test_functional_pipeline_matches_direct_computation():
    spec = build_spec()
    chunks = make_chunks()
    result = InProcessExecutor().execute(spec, chunks)
    # Direct ground truth.
    alldata = np.concatenate([c.data for c in chunks])
    expect = {}
    for v in alldata:
        k = int(v % 10)
        expect[k] = expect.get(k, 0.0) + float(v) ** 2
    got = {}
    for r, (keys, sums) in enumerate(result.outputs):
        for k, s in zip(keys, sums):
            assert k % spec.n_reducers == r  # routed to the right reducer
            got[int(k)] = float(s)
    assert set(got) == set(expect)
    for k in expect:
        assert got[k] == pytest.approx(expect[k], rel=1e-6)


def test_placeholders_are_discarded_but_counted():
    spec = build_spec()
    rng = np.random.default_rng(1)
    data = rng.integers(0, 100, 200).astype(np.int64)  # mixed parity
    chunks = [Chunk(id=0, nbytes=data.nbytes, data=data)]
    result = InProcessExecutor().execute(spec, chunks)
    st = result.stats
    n_odd = int(np.count_nonzero(data % 2 == 1))
    assert st.n_pairs_emitted == 200
    assert st.n_pairs_kept == 200 - n_odd


def test_mapper_initialize_called():
    spec = build_spec()
    InProcessExecutor().execute(spec, make_chunks(1))
    assert spec.mapper.initialized


def test_works_record_routing():
    spec = build_spec(n_reducers=4)
    chunks = make_chunks(3)
    result = InProcessExecutor().execute(spec, chunks, chunk_to_gpu=[0, 1, 1])
    assert len(result.works) == 3
    assert [w.gpu for w in result.works] == [0, 1, 1]
    for w, c in zip(result.works, chunks):
        assert w.upload_bytes == c.nbytes
        assert int(w.pairs_to_reducer.sum()) <= w.pairs_emitted
    total_routed = sum(int(w.pairs_to_reducer.sum()) for w in result.works)
    assert total_routed == result.stats.n_pairs_kept
    assert np.array_equal(
        sum(w.pairs_to_reducer for w in result.works), result.pairs_per_reducer
    )


# -- per-launch routing ----------------------------------------------------------
ROUTE_WIDTH, ROUTE_HEIGHT = 8, 6
ROUTE_MAX_KEY = ROUTE_WIDTH * ROUTE_HEIGHT - 1


class EmitMapper(Mapper):
    """A chunk's payload *is* its map output."""

    def map(self, chunk):
        return MapOutput(chunk.payload(), work={"n_rays": len(chunk.payload())})


class LastValueCombiner(Combiner):
    """Keeps each key's last pair, keys in order of first appearance."""

    def combine(self, pairs):
        last = {int(k): i for i, k in enumerate(pairs["key"])}
        return pairs[list(last.values())]


def _route_partitioner(kind, n):
    if kind == "round-robin":
        return RoundRobinPartitioner(n)
    if kind == "block":
        return BlockPartitioner(n, ROUTE_MAX_KEY + 1)
    return TiledPartitioner(n, ROUTE_WIDTH, ROUTE_HEIGHT, tile=3)


def _route_spec(kind="round-robin", n_reducers=3, combiner=None):
    return MapReduceSpec(
        mapper=EmitMapper(),
        reducer=SumReducer(),
        partitioner=_route_partitioner(kind, n_reducers),
        kv=KVSpec(KV),
        max_key=ROUTE_MAX_KEY,
        combiner=combiner,
    )


def _route_chunks(key_lists):
    """One chunk per key list; values number the launch's pairs, so a
    pair out of place or out of order shows."""
    chunks, serial = [], 0
    for i, keys in enumerate(key_lists):
        pairs = np.zeros(len(keys), dtype=KV)
        pairs["key"] = keys
        pairs["val"] = np.arange(serial, serial + len(keys))
        serial += len(keys)
        chunks.append(Chunk(id=i, nbytes=pairs.nbytes, data=pairs))
    return chunks


def _reference_route(spec, pairs):
    """One chunk routed the straight-line way: a mask per reducer."""
    emitted = len(pairs)
    pairs = pairs[pairs["key"] != PLACEHOLDER]
    if spec.combiner is not None:
        pairs = spec.combiner.combine(pairs)
    dests = spec.partitioner.partition(pairs["key"])
    runs = [pairs[dests == r] for r in range(spec.n_reducers)]
    return runs, emitted, len(pairs), [len(run) for run in runs]


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["round-robin", "block", "tiled"]),
    n_reducers=st.integers(1, 5),
    combine=st.booleans(),
    key_lists=st.lists(
        st.lists(st.integers(-1, ROUTE_MAX_KEY), max_size=25), min_size=1, max_size=6
    ),
)
def test_routing_a_launch_is_routing_its_chunks_one_by_one(
    kind, n_reducers, combine, key_lists
):
    """Runs bitwise and in emission order, counters equal, the launch
    charged to its first chunk — with empty chunks, placeholder keys
    (−1), and a combiner, under every partitioner."""
    spec = _route_spec(kind, n_reducers, LastValueCombiner() if combine else None)
    chunks = _route_chunks(key_lists)
    together = map_chunks_to_runs(spec, chunks)
    assert len(together) == len(chunks)
    for ci, (chunk, got) in enumerate(zip(chunks, together)):
        runs, emitted, kept, work, routed = got
        ref_runs, ref_emitted, ref_kept, ref_routed = _reference_route(spec, chunk.data)
        assert len(runs) == n_reducers
        for run, ref in zip(runs, ref_runs):
            assert run.dtype == KV and run.tobytes() == ref.tobytes()
        assert (emitted, kept) == (ref_emitted, ref_kept)
        assert type(emitted) is int and type(kept) is int
        assert routed.dtype == np.int64 and routed.tolist() == ref_routed
        assert work == {"n_rays": len(chunk.data), "launches": int(ci == 0)}
        # ... and a launch of one is the same function
        alone = map_chunk_to_runs(spec, chunk)
        assert [r.tobytes() for r in alone[0]] == [r.tobytes() for r in runs]
        assert alone[1:3] == (emitted, kept) and alone[3]["launches"] == 1
        assert alone[4].tolist() == ref_routed


def test_routing_rejects_what_per_chunk_routing_rejected():
    spec = _route_spec()
    chunks = _route_chunks([[1, 2, 3], [], [4, ROUTE_MAX_KEY + 1]])
    with pytest.raises(ValueError, match=rf"key {ROUTE_MAX_KEY + 1} outside \[0, {ROUTE_MAX_KEY}\]"):
        map_chunk_to_runs(spec, chunks[-1])
    with pytest.raises(ValueError, match=rf"key {ROUTE_MAX_KEY + 1} outside \[0, {ROUTE_MAX_KEY}\]"):
        map_chunks_to_runs(spec, chunks)
    chunks = _route_chunks([[1, 2], [-2]])  # only −1 is a placeholder
    with pytest.raises(ValueError, match="key -2 outside"):
        map_chunks_to_runs(spec, chunks)
    # a foreign dtype is a TypeError wherever in the launch it sits
    chunks = _route_chunks([[1], [2]])
    chunks[1] = Chunk(id=1, nbytes=8, data=np.zeros(1, np.dtype([("key", np.int32)])))
    with pytest.raises(TypeError, match="pairs dtype"):
        map_chunks_to_runs(spec, chunks)
    with pytest.raises(TypeError, match="pairs dtype"):
        map_chunk_to_runs(spec, chunks[1])

    class Astray(RoundRobinPartitioner):
        def partition(self, keys):
            return super().partition(keys) + 1

    spec.partitioner = Astray(3)
    with pytest.raises(ValueError, match="outside"):
        map_chunks_to_runs(spec, _route_chunks([[0, 1, 2]]))


def test_merge_partition_runs_with_missing_empty_and_single_runs():
    """A partition's runs may be absent (``None`` — the chunk, or just
    that run), empty, or a single one; the merge is the chunk-ordered
    concatenation, sorted stably and reduced, whichever way."""
    spec = _route_spec(n_reducers=4)
    chunks = _route_chunks([[0, 4, 8, 1], [], [4, 0, 5, 1, 1], [9, 13]])
    dense = [runs for runs, *_ in map_chunks_to_runs(spec, chunks)]
    # partition 0: three runs; 1: runs from three chunks; 2: none; 3: none
    assert [[len(r[p]) for r in dense] for p in range(4)] == [
        [3, 0, 2, 0], [1, 0, 3, 2], [0, 0, 0, 0], [0, 0, 0, 0]
    ]
    sparse = [
        [run if len(run) else None for run in runs] if ci != 1 else None
        for ci, runs in enumerate(dense)
    ]
    single = [dense[0], None, None, None]
    for runs_per_chunk in (dense, sparse, single, [], [None]):
        outputs, received = merge_partition_runs(spec, runs_per_chunk)
        assert len(outputs) == 4 and received.dtype == np.int64
        for p, (keys, sums) in enumerate(outputs):
            parts = [
                runs[p] for runs in runs_per_chunk
                if runs is not None and runs[p] is not None
            ]
            got = np.concatenate(parts) if parts else np.zeros(0, KV)
            got = got[np.argsort(got["key"], kind="stable")]
            want_keys, want_sums = spec.reducer.reduce_all(got)
            assert received[p] == len(got)
            assert np.array_equal(keys, want_keys)
            assert np.asarray(sums).tobytes() == np.asarray(want_sums).tobytes()
    # a worker's renumbered subset runs the same function
    view = PartitionReduceSpec(2, spec.kv, spec.max_key, spec.reducer, [1, 3])
    outputs, received = merge_partition_runs(
        view, [[runs[1], runs[3]] for runs in dense]
    )
    full, _ = merge_partition_runs(spec, dense)
    assert received.tolist() == [6, 0]
    assert np.array_equal(outputs[0][0], full[1][0])
    assert np.array_equal(outputs[0][1], full[1][1])


def test_out_of_core_chunk_loader():
    spec = build_spec()
    data = (np.arange(20, dtype=np.int64) * 2)
    chunk = Chunk(id=0, nbytes=data.nbytes, loader=lambda: data, on_disk=True)
    result = InProcessExecutor().execute(spec, [chunk])
    assert result.stats.n_pairs_kept == 20
    assert result.works[0].read_from_disk


def test_chunk_validation():
    with pytest.raises(ValueError):
        Chunk(id=0, nbytes=-1)
    with pytest.raises(ValueError):
        Chunk(id=0, nbytes=8, data=np.zeros(1), loader=lambda: np.zeros(1))
    c = Chunk(id=0, nbytes=4, loader=lambda: np.zeros(2, np.float32))
    with pytest.raises(ValueError):
        c.payload()  # loader size mismatch
    bare = Chunk(id=1, nbytes=8)
    with pytest.raises(ValueError):
        bare.payload()


# -- simulated scheduler -----------------------------------------------------
def simple_works(n_gpus, n_chunks, pairs_each=1000, n_reducers=None):
    n_reducers = n_reducers or n_gpus
    works = []
    for i in range(n_chunks):
        routed = np.full(n_reducers, pairs_each // n_reducers, dtype=np.int64)
        works.append(
            MapWork(
                chunk_id=i,
                gpu=i % n_gpus,
                upload_bytes=1 << 20,
                n_rays=256 * 256,
                n_samples=5_000_000,
                pairs_emitted=pairs_each,
                pairs_to_reducer=routed,
            )
        )
    return works


def run_sim(n_gpus, n_chunks, **cfg):
    spec = accelerator_cluster(n_gpus)
    ex = SimClusterExecutor(spec, JobConfig(**cfg))
    outcome, cluster = ex.execute(simple_works(n_gpus, n_chunks), pair_nbytes=24)
    return outcome


def test_sim_produces_positive_stage_times():
    out = run_sim(4, 8)
    sb = out.breakdown
    assert sb.map > 0
    assert sb.sort > 0
    assert sb.reduce > 0
    assert sb.partition_io >= 0
    assert out.total_runtime == pytest.approx(sb.total, rel=1e-9)


def test_sim_map_scales_down_with_gpus():
    t1 = run_sim(1, 16).breakdown.map
    t4 = run_sim(4, 16).breakdown.map
    assert t4 < t1
    assert t4 < t1 / 2  # parallel speedup beyond 2x with 4 GPUs


def test_sim_network_traffic_only_across_nodes():
    # 4 GPUs = 1 node: all traffic intranode.
    out = run_sim(4, 8)
    assert out.bytes_internode == 0
    assert out.bytes_intranode > 0
    # 8 GPUs = 2 nodes: some traffic goes over the NIC.
    out8 = run_sim(8, 8)
    assert out8.bytes_internode > 0


def test_sim_sort_device_auto_switches():
    small = run_sim(2, 4, sort_on="auto", sort_gpu_cutoff=1 << 21)
    assert small.sort_device == "cpu"
    big = run_sim(2, 4, sort_on="auto", sort_gpu_cutoff=100)
    assert big.sort_device == "gpu"


def test_sim_gpu_reduce_mode_runs():
    out = run_sim(2, 4, reduce_on="gpu")
    assert out.breakdown.reduce > 0


def test_sim_rejects_oversized_chunk():
    spec = accelerator_cluster(1)
    w = simple_works(1, 1)
    w[0].upload_bytes = 100 << 30  # 100 GiB
    with pytest.raises(MemoryError):
        SimClusterExecutor(spec).execute(w, pair_nbytes=24)


def test_sim_rejects_bad_gpu_index():
    spec = accelerator_cluster(2)
    w = simple_works(4, 4)  # targets gpu 3 on a 2-GPU cluster
    with pytest.raises(ValueError):
        SimClusterExecutor(spec).execute(w, pair_nbytes=24)


def test_mapwork_validation():
    with pytest.raises(ValueError):
        MapWork(0, 0, 1, 1, 1, pairs_emitted=1, pairs_to_reducer=np.array([5]))
    with pytest.raises(ValueError):
        MapWork(0, 0, 1, 1, 1, pairs_emitted=1, pairs_to_reducer=np.array([-1]))


def test_sim_include_disk_adds_time():
    spec = accelerator_cluster(2)
    works = simple_works(2, 4)
    for w in works:
        w.read_from_disk = True
    base, _ = SimClusterExecutor(spec, JobConfig(include_disk=False)).execute(
        works, pair_nbytes=24
    )
    disk, _ = SimClusterExecutor(spec, JobConfig(include_disk=True)).execute(
        works, pair_nbytes=24
    )
    assert disk.total_runtime > base.total_runtime
