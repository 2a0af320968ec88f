"""Node and cluster runtime objects.

:class:`NodeSpec` / :class:`ClusterSpec` are plain descriptions; a
:class:`ClusterRuntime` instantiates them inside a simulation
:class:`~repro.sim.engine.Environment`, wiring up the contended resources
(GPU engines, PCIe links, disks, NIC ports, CPU cores) and providing the
timed primitives the MapReduce scheduler composes:

* ``gpu.upload_texture`` — *synchronous* 3D-texture H2D copy (occupies the
  GPU engine as well as the PCIe link, per the paper's CUDA limitation);
* ``gpu.run_kernel`` — kernel execution;
* ``gpu.download`` — asynchronous D2H fragment copy (PCIe only);
* ``node.read_disk`` — brick load;
* ``node.cpu_work`` — host-side partition/sort/composite work;
* ``cluster.send`` — internode message (NIC TX + RX), or an intranode
  memcpy when source and destination share a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, Optional

from .cpu import CPUSpec
from .disk import DiskSpec
from .engine import Environment
from .gpu import GPUSpec
from .network import NetworkSpec
from .pcie import PCIeSpec
from .resources import Link, Resource
from . import trace as T
from .trace import Trace

__all__ = ["NodeSpec", "ClusterSpec", "GPUHandle", "NodeRuntime", "ClusterRuntime"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one compute node."""

    cpu: CPUSpec = field(default_factory=CPUSpec)
    disk: DiskSpec = field(default_factory=DiskSpec)
    pcie: PCIeSpec = field(default_factory=PCIeSpec)
    gpus: tuple[GPUSpec, ...] = field(default_factory=lambda: (GPUSpec(),))

    @property
    def gpu_count(self) -> int:
        return len(self.gpus)


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the whole cluster."""

    nodes: tuple[NodeSpec, ...]
    network: NetworkSpec = field(default_factory=NetworkSpec)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def gpu_count(self) -> int:
        return sum(n.gpu_count for n in self.nodes)

    def gpu_specs(self) -> list[GPUSpec]:
        return [g for n in self.nodes for g in n.gpus]

    def with_gpu(self, **overrides) -> "ClusterSpec":
        """Return a copy with every GPU spec's fields overridden."""
        new_nodes = tuple(
            replace(n, gpus=tuple(replace(g, **overrides) for g in n.gpus))
            for n in self.nodes
        )
        return replace(self, nodes=new_nodes)


class GPUHandle:
    """Runtime handle for one GPU inside a simulation."""

    def __init__(
        self,
        env: Environment,
        trace: Trace,
        spec: GPUSpec,
        node: "NodeRuntime",
        global_index: int,
        pcie_link: Link,
    ):
        self.env = env
        self.trace = trace
        self.spec = spec
        self.node = node
        self.index = global_index
        self.name = f"gpu{global_index}"
        self.engine = Resource(env, 1, name=f"{self.name}:engine")
        self.pcie = pcie_link

    # -- timed operations --------------------------------------------------
    def upload_texture(self, nbytes: int, setup_overhead: float = 0.0) -> Generator:
        """Synchronous H2D 3D-texture copy: holds engine *and* PCIe.

        ``setup_overhead`` charges the ``cudaMalloc3DArray``-style fixed
        cost on the engine before the copy starts.
        """
        grant = self.engine.request()
        yield grant
        try:
            t0 = self.env.now
            if setup_overhead > 0:
                yield self.env.timeout(setup_overhead)
            yield self.env.process(self.pcie.transfer(nbytes, direction=0))
            self.trace.record(T.CAT_H2D, self.name, t0, self.env.now, nbytes)
        finally:
            self.engine.release()

    def upload_async(self, nbytes: int) -> Generator:
        """Asynchronous H2D buffer copy: PCIe only, engine stays free.

        The §7 alternative to synchronous 3D-texture uploads — the volume
        lands in a linear buffer and the kernel filters manually in
        shared memory (pay ``manual_filter_slowdown`` there instead).
        """
        t0 = self.env.now
        yield self.env.process(self.pcie.transfer(nbytes, direction=0))
        self.trace.record(T.CAT_H2D_ASYNC, self.name, t0, self.env.now, nbytes)

    def download(self, nbytes: int) -> Generator:
        """Asynchronous D2H copy of results: PCIe only, engine free."""
        t0 = self.env.now
        yield self.env.process(self.pcie.transfer(nbytes, direction=1))
        self.trace.record(T.CAT_D2H, self.name, t0, self.env.now, nbytes)

    def run_kernel(self, seconds: float, category: str = T.CAT_KERNEL) -> Generator:
        """Occupy the kernel engine for ``seconds``."""
        if seconds < 0:
            raise ValueError("negative kernel time")
        grant = self.engine.request()
        yield grant
        try:
            t0 = self.env.now
            yield self.env.timeout(seconds)
            self.trace.record(category, self.name, t0, self.env.now)
        finally:
            self.engine.release()


class NodeRuntime:
    """Runtime handle for one node: CPU cores, disk, NIC ports, GPUs."""

    def __init__(
        self,
        env: Environment,
        trace: Trace,
        spec: NodeSpec,
        index: int,
        network: NetworkSpec,
        gpu_base_index: int,
    ):
        self.env = env
        self.trace = trace
        self.spec = spec
        self.index = index
        self.name = f"node{index}"
        self.cpu = Resource(env, spec.cpu.cores, name=f"{self.name}:cpu")
        self.disk = Resource(env, 1, name=f"{self.name}:disk")
        self.nic_tx = Resource(env, 1, name=f"{self.name}:tx")
        self.nic_rx = Resource(env, 1, name=f"{self.name}:rx")
        self.network = network
        # PCIe links are shared by groups of `pcie.shared_by` GPUs (the
        # S1070 attaches two GPUs per x16 cable).
        self.gpus: list[GPUHandle] = []
        share = max(1, spec.pcie.shared_by)
        links: list[Link] = []
        for i, gspec in enumerate(spec.gpus):
            if i % share == 0:
                links.append(
                    Link(
                        env,
                        bandwidth=spec.pcie.h2d_bandwidth,
                        latency=spec.pcie.latency,
                        name=f"{self.name}:pcie{i // share}",
                        duplex=True,
                    )
                )
            self.gpus.append(
                GPUHandle(env, trace, gspec, self, gpu_base_index + i, links[-1])
            )

    def read_disk(self, nbytes: int) -> Generator:
        """Read ``nbytes`` from the node-local disk (FIFO spindle)."""
        grant = self.disk.request()
        yield grant
        try:
            t0 = self.env.now
            yield self.env.timeout(self.spec.disk.read_time(nbytes))
            self.trace.record(T.CAT_DISK, self.name, t0, self.env.now, nbytes)
        finally:
            self.disk.release()

    def cpu_work(self, seconds: float, category: str = T.CAT_HOST, threads: int = 1) -> Generator:
        """Occupy ``threads`` CPU cores for ``seconds``."""
        if seconds < 0:
            raise ValueError("negative cpu time")
        threads = max(1, min(threads, self.spec.cpu.cores))
        grants = [self.cpu.request() for _ in range(threads)]
        for g in grants:
            yield g
        try:
            t0 = self.env.now
            yield self.env.timeout(seconds)
            self.trace.record(category, self.name, t0, self.env.now)
        finally:
            for _ in grants:
                self.cpu.release()


class ClusterRuntime:
    """The whole simulated machine: nodes + fabric + trace."""

    def __init__(self, spec: ClusterSpec, env: Optional[Environment] = None):
        self.spec = spec
        self.env = env or Environment()
        self.trace = Trace()
        self.nodes: list[NodeRuntime] = []
        base = 0
        for i, nspec in enumerate(spec.nodes):
            node = NodeRuntime(self.env, self.trace, nspec, i, spec.network, base)
            self.nodes.append(node)
            base += nspec.gpu_count
        self.gpus: list[GPUHandle] = [g for n in self.nodes for g in n.gpus]

    @property
    def gpu_count(self) -> int:
        return len(self.gpus)

    def send(self, src: int, dst: int, nbytes: int) -> Generator:
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        Internode messages hold the sender's TX port and the receiver's RX
        port for the serialisation time, then pay wire latency.  Intranode
        destinations cost a host memcpy on the node's CPU instead.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        env = self.env
        if src == dst:
            node = self.nodes[src]
            secs = node.spec.cpu.memcpy_time(nbytes)
            t0 = env.now
            yield env.timeout(secs)
            self.trace.record(T.CAT_NET, f"{node.name}:local", t0, env.now, nbytes)
            return
        sender, receiver = self.nodes[src], self.nodes[dst]
        net = sender.network
        tx = sender.nic_tx.request()
        yield tx
        try:
            rx = receiver.nic_rx.request()
            yield rx
            try:
                t0 = env.now
                yield env.timeout(net.message_overhead + nbytes / net.bandwidth)
                self.trace.record(
                    T.CAT_NET, f"{sender.name}->{receiver.name}", t0, env.now, nbytes
                )
            finally:
                receiver.nic_rx.release()
        finally:
            sender.nic_tx.release()
        if net.latency > 0:
            yield env.timeout(net.latency)
