"""Tests that the streaming scheduler actually overlaps work — the
library's central performance claim ("network communication, CPU/GPU
data transfers, disk access, and GPU kernel execution ... all happen
concurrently")."""

import numpy as np
import pytest

from repro.core import JobConfig, MapWork
from repro.sim import SimClusterExecutor, accelerator_cluster
from repro.sim import trace as T


def make_works(n_gpus, chunks_per_gpu=4, pairs=200_000):
    works = []
    for g in range(n_gpus):
        for c in range(chunks_per_gpu):
            works.append(
                MapWork(
                    chunk_id=g * chunks_per_gpu + c,
                    gpu=g,
                    upload_bytes=64 << 20,
                    n_rays=64 * 64,
                    n_samples=8_000_000,
                    pairs_emitted=pairs,
                    pairs_to_reducer=np.full(n_gpus, pairs // (2 * n_gpus), np.int64),
                )
            )
    return works


def run(n_gpus, **cfg):
    spec = accelerator_cluster(n_gpus)
    return SimClusterExecutor(spec, JobConfig(**cfg)).execute(
        make_works(n_gpus), pair_nbytes=24
    )


def spans_overlap(a, b):
    return a.start < b.end and b.start < a.end


def test_network_sends_overlap_kernels():
    """Some NIC transfer must be in flight while a kernel runs."""
    outcome, cluster = run(8)  # 2 nodes → internode traffic
    tr = cluster.trace
    kernels = [s for s in tr.spans if s.category == T.CAT_KERNEL]
    nets = [s for s in tr.spans if s.category == T.CAT_NET and "->" in s.resource]
    assert nets, "no internode messages recorded"
    assert any(
        spans_overlap(k, n) for k in kernels for n in nets
    ), "no kernel/network overlap found"


def test_partition_overlaps_other_gpus_kernels():
    """Host partition work of one chunk runs while other GPUs compute."""
    outcome, cluster = run(4)
    tr = cluster.trace
    kernels = [s for s in tr.spans if s.category == T.CAT_KERNEL]
    parts = [s for s in tr.spans if s.category == T.CAT_PARTITION]
    assert any(spans_overlap(k, p) for k in kernels for p in parts)


def test_multiple_gpus_compute_concurrently():
    outcome, cluster = run(4)
    tr = cluster.spans if hasattr(cluster, "spans") else cluster.trace
    kernels = [s for s in cluster.trace.spans if s.category == T.CAT_KERNEL]
    by_gpu = {}
    for s in kernels:
        by_gpu.setdefault(s.resource, []).append(s)
    assert len(by_gpu) == 4
    gpus = list(by_gpu)
    assert any(
        spans_overlap(a, b)
        for a in by_gpu[gpus[0]]
        for b in by_gpu[gpus[1]]
    )


def test_map_phase_shorter_than_serial_sum():
    """Overlap must beat the fully-serial schedule by a clear margin."""
    outcome, cluster = run(8)
    tr = cluster.trace
    serial = sum(
        s.duration
        for s in tr.spans
        if s.category
        in (T.CAT_KERNEL, T.CAT_H2D, T.CAT_D2H, T.CAT_PARTITION, T.CAT_NET)
    )
    assert outcome.map_wall < 0.5 * serial


def test_sync_uploads_do_not_overlap_same_gpu_kernels():
    """The CUDA limitation: texture uploads and kernels on ONE GPU are
    mutually exclusive (they share the engine)."""
    outcome, cluster = run(2)
    tr = cluster.trace
    for gpu_name in ("gpu0", "gpu1"):
        mine = [
            s
            for s in tr.spans
            if s.resource == gpu_name and s.category in (T.CAT_KERNEL, T.CAT_H2D)
        ]
        mine.sort(key=lambda s: s.start)
        for a, b in zip(mine, mine[1:]):
            assert a.end <= b.start + 1e-12, f"{gpu_name}: {a} overlaps {b}"


def test_threshold_splits_messages():
    big, _ = run(8, send_threshold_pairs=1 << 20)
    small, _ = run(8, send_threshold_pairs=1 << 10)
    assert small.n_messages > big.n_messages
    # Same bytes either way — the stream is just chunked differently.
    assert small.bytes_internode == big.bytes_internode
