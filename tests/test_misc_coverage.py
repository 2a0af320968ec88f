"""Remaining unit coverage: container errors, spec helpers, kv details."""

import struct

import numpy as np
import pytest

from repro.render import PixelRect, TransferFunction1D, default_tf, orbit_camera
from repro.sim import ClusterSpec, GPUSpec, NodeSpec, accelerator_cluster
from repro.volume import BvolReader, make_dataset, write_bvol


def test_bvol_offset_count_mismatch_rejected(tmp_path):
    v = make_dataset("skull", (8, 8, 8))
    path = tmp_path / "x.bvol"
    write_bvol(path, v, brick_size=4)
    # Corrupt the header: drop one offset.
    raw = bytearray(path.read_bytes())
    hlen = struct.unpack("<I", raw[6:10])[0]
    import json

    header = json.loads(bytes(raw[10 : 10 + hlen]))
    header["offsets"] = header["offsets"][:-1]
    blob = json.dumps(header).encode().ljust(hlen, b" ")
    raw[10 : 10 + hlen] = blob
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="offsets"):
        BvolReader(path)


def test_bvol_short_read_rejected(tmp_path):
    v = make_dataset("skull", (8, 8, 8))
    path = tmp_path / "y.bvol"
    write_bvol(path, v, brick_size=8)
    r = BvolReader(path)
    # Truncate the file mid-payload.
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 100])
    with pytest.raises(IOError, match="short read"):
        r.read_brick(0)


def test_cluster_spec_helpers():
    spec = accelerator_cluster(6)
    assert spec.gpu_count == 6
    assert len(spec.gpu_specs()) == 6
    slow = spec.with_gpu(texture_samples_per_sec=1.0, vram_bytes=123)
    assert all(g.vram_bytes == 123 for g in slow.gpu_specs())
    # Original untouched (immutable specs).
    assert all(g.vram_bytes != 123 for g in spec.gpu_specs())


def test_gpu_spec_fits_and_cost_monotonicity():
    g = GPUSpec()
    assert g.sort_time(1000) < g.sort_time(10_000_000)
    assert g.composite_time(0) == pytest.approx(g.kernel_launch_overhead)


def test_node_spec_defaults():
    n = NodeSpec()
    assert n.gpu_count == 1
    spec = ClusterSpec(nodes=(n, n))
    assert spec.node_count == 2 and spec.gpu_count == 2


def test_transfer_function_nbytes():
    tf = default_tf(resolution=128)
    assert tf.nbytes == 128 * 4 * 4


def test_camera_rect_keys_are_int32_row_major():
    cam = orbit_camera((8, 8, 8), width=16, height=16)
    _, _, keys = cam.rays_for_rect(PixelRect(0, 0, 16, 16))
    assert keys.dtype == np.int32
    assert keys[0] == 0
    assert keys[1] == 1  # x fastest
    assert keys[16] == 16  # next row


def test_make_dataset_anisotropic_resolution():
    v = make_dataset("plume", (8, 8, 32))
    assert v.shape == (8, 8, 32)
    assert v.resolution_label() == "8x8x32"
