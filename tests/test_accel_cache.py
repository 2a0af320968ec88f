"""Tests for the per-volume acceleration cache (empty-space table LRU)."""

import numpy as np
import pytest

from repro import MapReduceVolumeRenderer, make_dataset, orbit_camera
from repro.render import RenderConfig, default_tf, grayscale_tf
from repro.render import accel
from repro.render.accel import AccelCache, shared_cache, volume_token
from repro.render.raycast import raycast_brick


def test_lru_eviction_by_entries_and_bytes():
    c = AccelCache(max_entries=2, max_bytes=1 << 20)
    t = {k: np.zeros(8, dtype=bool) for k in "abc"}
    c.put("a", t["a"])
    c.put("b", t["b"])
    assert c.get("a") is t["a"]  # refresh a: b becomes LRU
    c.put("c", t["c"])
    assert c.get("b") is None  # evicted
    assert c.get("a") is t["a"] and c.get("c") is t["c"]
    # Byte bound evicts independently of the entry bound.
    cb = AccelCache(max_entries=100, max_bytes=100)
    cb.put("x", np.zeros(80, np.uint8))
    cb.put("y", np.zeros(80, np.uint8))
    assert cb.get("x") is None and cb.get("y") is not None
    assert cb.stats()["nbytes"] <= 100


def test_cache_hit_miss_counters():
    c = AccelCache()
    assert c.get("k") is None
    c.put("k", np.ones(4, dtype=bool))
    assert c.get("k") is not None
    assert c.stats() == {"hits": 1, "misses": 1, "hit_rate": 0.5, "entries": 1, "nbytes": 4}


def test_cache_bounds_validation():
    with pytest.raises(ValueError):
        AccelCache(max_entries=0)
    with pytest.raises(ValueError):
        AccelCache(max_bytes=0)


def test_volume_token_unique_and_stable():
    v1 = make_dataset("skull", (8, 8, 8))
    v2 = make_dataset("skull", (8, 8, 8))
    t1, t2 = volume_token(v1), volume_token(v2)
    assert t1 is not None and t2 is not None
    assert t1 != t2  # identical content, distinct objects
    assert volume_token(v1) == t1  # stable per object
    assert volume_token(None) is None
    assert volume_token(object()) is None  # not weak-referenceable: no token

    class Obj:
        pass

    assert volume_token(Obj()) is not None  # any weakref-able object


def test_volume_token_never_reused_after_gc():
    import gc

    v = make_dataset("skull", (8, 8, 8))
    t = volume_token(v)
    del v
    gc.collect()
    v2 = make_dataset("skull", (8, 8, 8))
    assert volume_token(v2) != t


def test_tf_version_tracks_content():
    a, b = default_tf(), default_tf()
    assert a.version == b.version  # content-addressed, not identity
    assert a.version != grayscale_tf().version
    assert len(a.version) > 0


def test_cached_table_cannot_change_image_or_stats(monkeypatch):
    """Warm-cache renders are bitwise identical to cold-cache renders."""
    vol = make_dataset("skull", (32, 32, 32))
    r = MapReduceVolumeRenderer(volume=vol, cluster=2)
    cam = orbit_camera(vol.shape, width=96, height=96)
    monkeypatch.setattr(accel, "_shared", AccelCache())
    cold = r.render(cam)
    warm = r.render(cam)
    assert shared_cache().hits > 0  # the second frame actually hit
    assert np.array_equal(cold.image, warm.image)
    assert cold.stats.as_dict() == warm.stats.as_dict()


def test_cached_grid_cannot_change_image_or_stats(monkeypatch):
    """The occupied-box mirror of the table test: cold vs warm bitwise,
    with one box per table actually landing in the cache."""
    vol = make_dataset("skull", (32, 32, 32))
    r = MapReduceVolumeRenderer(
        volume=vol, cluster=2, render_config=RenderConfig(accel="table")
    )
    cam = orbit_camera(vol.shape, width=96, height=96)
    monkeypatch.setattr(accel, "_shared", AccelCache())
    cold = r.render(cam)
    entries = shared_cache()._entries
    assert len(entries) == cold.n_bricks  # one (table, box) entry per brick
    assert all(len(entry) == 2 for entry, _ in entries.values())
    hits = shared_cache().hits
    warm = r.render(cam)
    assert shared_cache().hits == hits + cold.n_bricks
    assert np.array_equal(cold.image, warm.image)
    assert cold.stats.as_dict() == warm.stats.as_dict()


def test_cache_put_none_raises():
    c = AccelCache()
    with pytest.raises(TypeError):
        c.put("k", None)
    assert c.stats()["entries"] == 0


def test_accel_key_with_no_leading_zero_alpha_tf():
    # A transfer function that is opaque from entry 0 has no empty space
    # to skip: no corner-max table and no occupied box exist, nothing is
    # cached (least of all a None), and nothing is looked up either —
    # the threshold alone says so, every frame, for free.
    from repro.render import TransferFunction1D

    tf = TransferFunction1D(np.full((8, 4), 0.5, np.float32))
    rng = np.random.default_rng(5)
    data = rng.random((16, 16, 16), dtype=np.float32)
    cam = orbit_camera((16, 16, 16), width=48, height=48)
    cache = AccelCache()
    kwargs = dict(
        data=data,
        data_lo=(0, 0, 0),
        core_lo=(0, 0, 0),
        core_hi=(16, 16, 16),
        volume_shape=(16, 16, 16),
        camera=cam,
        tf=tf,
        config=RenderConfig(dt=0.5),
    )
    f1, _ = raycast_brick(**kwargs, accel_key=("k",), accel_cache=cache)
    assert cache.stats()["entries"] == 0 and cache.misses == 0
    f2, _ = raycast_brick(**kwargs, accel_key=("k",), accel_cache=cache)
    assert cache.stats()["entries"] == 0 and cache.misses == 0
    f3, _ = raycast_brick(**kwargs)
    assert np.array_equal(f1, f2) and np.array_equal(f1, f3)


def test_raycast_brick_uses_explicit_cache():
    rng = np.random.default_rng(3)
    data = rng.random((12, 12, 12), dtype=np.float32)
    cam = orbit_camera((12, 12, 12), width=48, height=48)
    cache = AccelCache()
    kwargs = dict(
        data=data,
        data_lo=(0, 0, 0),
        core_lo=(0, 0, 0),
        core_hi=(12, 12, 12),
        volume_shape=(12, 12, 12),
        camera=cam,
        tf=default_tf(),
        config=RenderConfig(dt=0.5),
    )
    f1, s1 = raycast_brick(**kwargs, accel_key=("k",), accel_cache=cache)
    # The table and its occupied box, one entry under the key.
    assert set(cache._entries) == {("k",)}
    (table, box), nbytes = cache._entries[("k",)]
    assert cache.stats()["nbytes"] == nbytes == table.nbytes + box.nbytes
    f2, s2 = raycast_brick(**kwargs, accel_key=("k",), accel_cache=cache)
    assert cache.hits >= 1
    assert np.array_equal(f1, f2)
    assert s1.n_samples == s2.n_samples and s1.n_kept == s2.n_kept
    # No key -> the shared cache is untouched and output is unchanged.
    f3, _ = raycast_brick(**kwargs)
    assert np.array_equal(f1, f3)
