"""Tests for hardware specs, node/cluster runtime, presets, and trace."""

import pytest

from repro.sim import (
    ClusterRuntime,
    ClusterSpec,
    DiskSpec,
    GPUSpec,
    NodeSpec,
    PCIeSpec,
    StageBreakdown,
    Trace,
    accelerator_cluster,
)
from repro.sim import trace as T

MiB = 1024 * 1024


# -- calibration against the paper's stated micro-costs -------------------
def test_disk_64cubed_brick_is_about_20ms():
    """Paper: 'loading a 64^3 block from disk takes approximately 20 ms'."""
    nbytes = 64**3 * 4
    t = DiskSpec().read_time(nbytes)
    assert 0.015 <= t <= 0.025


def test_pcie_64cubed_brick_under_0p2ms():
    """Paper: transferring that brick to the GPU takes less than 0.2 ms."""
    nbytes = 64**3 * 4
    assert PCIeSpec().h2d_time(nbytes) < 0.2e-3


def test_fragment_download_under_2ms():
    """Paper: final ray fragments GPU->CPU 'less than 2 ms'."""
    # A 512^2 image worth of 24-byte fragments.
    nbytes = 512 * 512 * 24
    assert PCIeSpec().d2h_time(nbytes) < 2e-3


def test_gpu_raycast_time_monotone_in_work():
    g = GPUSpec()
    assert g.raycast_time(1000, 100000) < g.raycast_time(1000, 200000)
    assert g.raycast_time(1000, 100000) < g.raycast_time(2000, 100000)
    with pytest.raises(ValueError):
        g.raycast_time(-1, 0)


# -- presets ---------------------------------------------------------------
def test_accelerator_cluster_shapes():
    c = accelerator_cluster(32)
    assert c.node_count == 8
    assert c.gpu_count == 32
    assert all(n.gpu_count == 4 for n in c.nodes)

    c = accelerator_cluster(2)
    assert c.node_count == 1
    assert c.gpu_count == 2

    c = accelerator_cluster(9)
    assert c.node_count == 3
    assert c.gpu_count == 9


def test_accelerator_cluster_validation():
    with pytest.raises(ValueError):
        accelerator_cluster(0)
    with pytest.raises(ValueError):
        accelerator_cluster(4, gpus_per_node=0)


def test_with_gpu_override():
    c = accelerator_cluster(4).with_gpu(texture_samples_per_sec=1.0)
    assert all(g.texture_samples_per_sec == 1.0 for g in c.gpu_specs())


# -- runtime ---------------------------------------------------------------
def test_texture_upload_blocks_kernel_same_gpu():
    """Sync 3D-texture copies occupy the GPU engine (paper's CUDA limitation)."""
    rt = ClusterRuntime(accelerator_cluster(1))
    env, gpu = rt.env, rt.gpus[0]
    order = []

    def uploader():
        yield env.process(gpu.upload_texture(64 * MiB))
        order.append(("upload_done", env.now))

    def kernel():
        yield env.process(gpu.run_kernel(0.001))
        order.append(("kernel_done", env.now))

    env.process(uploader())
    env.process(kernel())
    env.run()
    assert order[0][0] == "upload_done"
    # Kernel could not start until the upload released the engine.
    upload_t = order[0][1]
    assert order[1][1] == pytest.approx(upload_t + 0.001)


def test_d2h_download_overlaps_kernel():
    """Async downloads do not occupy the engine."""
    rt = ClusterRuntime(accelerator_cluster(1))
    env, gpu = rt.env, rt.gpus[0]
    done = {}

    def downloader():
        yield env.process(gpu.download(5 * MiB))
        done["dl"] = env.now

    def kernel():
        yield env.process(gpu.run_kernel(0.5))
        done["k"] = env.now

    env.process(downloader())
    env.process(kernel())
    env.run()
    assert done["dl"] < 0.5  # finished while kernel still running
    assert done["k"] == pytest.approx(0.5)


def test_pcie_shared_between_gpu_pairs():
    """Two GPUs on one S1070 cable contend; GPUs on different cables don't."""
    rt = ClusterRuntime(accelerator_cluster(4))
    env = rt.env
    ends = {}

    def upload(i):
        yield env.process(rt.gpus[i].upload_texture(550 * 10**6))  # ~0.1 s
        ends[i] = env.now

    for i in range(4):
        env.process(upload(i))
    env.run()
    # gpus 0,1 share a link; 2,3 share the other. Each pair serialises.
    pair_a = sorted([ends[0], ends[1]])
    pair_b = sorted([ends[2], ends[3]])
    assert pair_a[1] == pytest.approx(pair_a[0] * 2, rel=0.01)
    assert pair_b[1] == pytest.approx(pair_b[0] * 2, rel=0.01)
    assert pair_a == pytest.approx(pair_b)


def test_intranode_send_is_memcpy_not_nic():
    rt = ClusterRuntime(accelerator_cluster(8))  # 2 nodes
    env = rt.env

    def go():
        yield env.process(rt.send(0, 0, 100 * MiB))

    env.process(go())
    env.run()
    local = rt.trace.spans
    assert all(":local" in s.resource for s in local if s.category == T.CAT_NET)
    expected = rt.nodes[0].spec.cpu.memcpy_time(100 * MiB)
    assert env.now == pytest.approx(expected)


def test_internode_send_uses_nic_and_serialises_at_tx():
    spec = accelerator_cluster(12)  # 3 nodes
    rt = ClusterRuntime(spec)
    env = rt.env
    nbytes = int(spec.network.bandwidth)  # 1 s of serialisation
    ends = {}

    def sender(dst):
        yield env.process(rt.send(0, dst, nbytes))
        ends[dst] = env.now

    env.process(sender(1))
    env.process(sender(2))
    env.run()
    # Both leave node0's single TX port: second completes ~1s after first.
    times = sorted(ends.values())
    assert times[1] - times[0] == pytest.approx(1.0, rel=0.01)


def test_concurrent_receives_serialise_at_rx():
    spec = accelerator_cluster(12)  # 3 nodes
    rt = ClusterRuntime(spec)
    env = rt.env
    nbytes = int(spec.network.bandwidth)
    ends = []

    def sender(src):
        yield env.process(rt.send(src, 2, nbytes))
        ends.append(env.now)

    env.process(sender(0))
    env.process(sender(1))
    env.run()
    times = sorted(ends)
    assert times[1] - times[0] == pytest.approx(1.0, rel=0.01)


def test_disk_fifo_on_node():
    rt = ClusterRuntime(accelerator_cluster(1))
    env = rt.env
    ends = []

    def reader():
        yield env.process(rt.nodes[0].read_disk(MiB))
        ends.append(env.now)

    env.process(reader())
    env.process(reader())
    env.run()
    assert ends[1] == pytest.approx(2 * ends[0], rel=0.01)


def test_cpu_work_uses_threads():
    rt = ClusterRuntime(accelerator_cluster(1))
    env = rt.env
    node = rt.nodes[0]
    ends = []

    def job():
        yield env.process(node.cpu_work(1.0, threads=4))
        ends.append(env.now)

    env.process(job())
    env.process(job())
    env.run()
    # 4 cores each: two jobs serialise on the quad-core node.
    assert sorted(ends) == [pytest.approx(1.0), pytest.approx(2.0)]


# -- trace / stage breakdown ----------------------------------------------
def test_trace_rejects_negative_span():
    tr = Trace()
    with pytest.raises(ValueError):
        tr.record(T.CAT_KERNEL, "gpu0", 1.0, 0.5)


def test_stage_breakdown_accounting():
    tr = Trace()
    tr.mark("start", 0.0)
    # GPU0 computes 0.6s serial inside a 1.0s map phase.
    tr.record(T.CAT_H2D, "gpu0", 0.0, 0.1)
    tr.record(T.CAT_KERNEL, "gpu0", 0.1, 0.6)
    tr.record(T.CAT_NET, "node0->node1", 0.5, 1.0)
    tr.mark("map_phase_end", 1.0)
    tr.record(T.CAT_SORT, "node0", 1.0, 1.2)
    tr.mark("sort_phase_end", 1.2)
    tr.record(T.CAT_REDUCE, "node0", 1.2, 1.5)
    tr.mark("reduce_phase_end", 1.5)
    sb = StageBreakdown.from_trace(tr)
    assert sb.map == pytest.approx(0.6)
    assert sb.partition_io == pytest.approx(0.4)
    assert sb.sort == pytest.approx(0.2)
    assert sb.reduce == pytest.approx(0.3)
    assert sb.total == pytest.approx(1.5)


def test_stage_breakdown_requires_marks():
    tr = Trace()
    with pytest.raises(ValueError):
        StageBreakdown.from_trace(tr)
