"""Observability stack: tracer, timeline export, metrics, provenance.

Four contracts pinned here:

* **Inert when off** — with no tracer installed, every instrumentation
  point returns a shared no-op and pool renders reproduce the committed
  golden fixtures bitwise (the tracer can never leak into job data).
* **Faithful when on** — a traced pool render still matches the goldens
  bitwise, and its exported Chrome/Perfetto timeline has one track per
  worker plus the parent, covers every pipeline stage, nests laminarly
  per track, and tags respawned generations under fault injection.
* **One telemetry schema** — ``JobStats.telemetry`` carries one flat
  metrics document (ring/recovery/arena/cache/map) and ``as_dict`` only
  exposes it on explicit opt-in.
* **Provenance** — every benchmark document records the machine,
  interpreter, bytecode settings and march it was measured with.
"""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from test_golden_images import (  # noqa: E402
    assert_matches_golden,
    build_job,
    render_scene,
    run_job,
)

from repro.bench.results import collect_environment  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.core.stats import JobStats  # noqa: E402
from repro.observability import (  # noqa: E402
    SCHEMA,
    build_job_telemetry,
    chrome_trace,
    current_tracer,
    disable_tracing,
    enable_tracing,
    stage_breakdown,
    stage_summary_line,
)
from repro.observability.tracer import _NOOP, instant, span  # noqa: E402
from repro.parallel import SharedMemoryPoolExecutor  # noqa: E402
from repro.parallel.ring import ShmRing  # noqa: E402
from repro.render.accel import AccelCache  # noqa: E402


@pytest.fixture(autouse=True)
def _no_tracer_leak():
    """Tracing state is process-global; never let a test leak it."""
    disable_tracing()
    yield
    disable_tracing()


# -- tracer core -------------------------------------------------------------
def test_span_is_shared_noop_when_disabled():
    assert current_tracer() is None
    s = span("map:chunk=0", cat="map")
    assert s is _NOOP
    with s as inner:
        inner.set(bytes=1)  # no-op, no state
    instant("supervisor:failure")  # no-op, no crash


def test_enabled_tracer_records_spans_and_instants():
    tr = enable_tracing()
    with span("map:chunk=3", cat="map", chunk=3) as s:
        s.set(pairs=17)
    instant("supervisor:failure", kind="wedged")
    assert len(tr.events) == 2
    name, cat, ts, dur, args = tr.events[0]
    assert name == "map:chunk=3" and cat == "map"
    assert isinstance(ts, int) and dur >= 0
    assert args == {"chunk": 3, "pairs": 17}
    # instants carry dur None
    assert tr.events[1][3] is None


def test_reenable_starts_an_empty_timeline():
    tr1 = enable_tracing()
    with span("stitch"):
        pass
    tr2 = enable_tracing()
    assert tr2 is not tr1 and tr2.events == []
    assert current_tracer() is tr2


def test_drain_and_remote_merge():
    tr = enable_tracing()
    with span("map:chunk=0", cat="map"):
        pass
    shipped = tr.drain()
    assert tr.events == [] and len(shipped) == 1
    tr.add_remote(1, 2, shipped)
    tr.add_remote(0, 0, [])  # empty buffers are dropped
    assert tr.remote() == [(1, 2, shipped)]
    with span("stitch", cat="stitch"):
        pass
    flat = list(tr.all_events())
    tracks = [(track, gen) for track, gen, _ in flat]
    assert (None, 0) in tracks and (1, 2) in tracks
    assert len(flat) == 2


# -- timeline export ---------------------------------------------------------
def _trace_doc(tr):
    doc = chrome_trace(tr)
    json.loads(json.dumps(doc))  # must be valid JSON end-to-end
    return doc


def test_chrome_trace_tracks_and_metadata():
    tr = enable_tracing()
    with span("publish", cat="publish"):
        pass
    tr.add_remote(0, 0, [("map:chunk=0", "map", 10_000, 5_000, {"chunk": 0})])
    tr.add_remote(1, 1, [("reduce:partitions=3", "reduce", 20_000, 7_000, None)])
    doc = _trace_doc(tr)
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    names = {(e["tid"], e["args"]["name"]) for e in meta}
    assert (0, "parent") in names
    assert (1, "worker 0") in names and (2, "worker 1") in names
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    by_tid = {e["tid"]: e for e in spans}
    assert set(by_tid) == {0, 1, 2}
    # worker events are stamped with worker/gen; µs conversion from ns
    w1 = by_tid[2]
    assert w1["args"]["worker"] == 1 and w1["args"]["gen"] == 1
    assert w1["ts"] == 20.0 and w1["dur"] == 7.0


def test_stage_breakdown_buckets_and_summary_line():
    tr = enable_tracing()
    tr.add("map:chunk=0", 0, 6_000_000, cat="map")
    tr.add("map:chunk=1", 0, 2_000_000, cat="map")
    tr.add("shuffle-out", 0, 1_000_000, cat="shuffle")
    tr.add("shuffle-in", 0, 1_000_000, cat="shuffle")
    tr.add("ring-stall", 0, 3_000_000, cat="stall")
    tr.instant("supervisor:failure")  # instants never enter the breakdown
    totals = stage_breakdown(tr)
    assert totals == pytest.approx(
        {"map": 0.008, "shuffle": 0.002, "stall": 0.003}
    )
    line = stage_summary_line(tr)
    assert "map=80.0%" in line and "shuffle=20.0%" in line
    assert "stall=0.003s" in line


def test_stage_summary_line_empty_timeline_is_none():
    tr = enable_tracing()
    assert stage_summary_line(tr) is None


# -- telemetry document ------------------------------------------------------
def test_absorb_flattens_nested_and_indexed():
    m = build_job_telemetry(
        ring={
            "shuffle_mode": "mesh",
            "stall_seconds": 0.25,
            "per_worker": [{"stalls": 1}, {"stalls": 0}],
            "widths": [2, 1],
        },
        recovery=None,
    )["metrics"]
    assert m["ring.shuffle_mode"]["value"] == "mesh"
    assert m["ring.stall_seconds"]["value"] == 0.25
    assert m["ring.per_worker.0.stalls"]["value"] == 1
    assert m["ring.per_worker.1.stalls"]["value"] == 0
    assert m["ring.widths"]["value"] == [2, 1]


def test_build_job_telemetry_document():
    doc = build_job_telemetry(
        ring={"stall_seconds": 0.0},
        recovery={"respawns": 1},
        arena={"publishes": 2, "published_bytes": 4096, "rebroadcasts": 1},
        cache={"hits": 3, "misses": 1},
        workers=2,
        shuffle_mode="mesh",
    )
    m = doc["metrics"]
    assert doc["schema"] == SCHEMA
    assert m["arena.publishes"]["value"] == 2
    assert m["arena.published_bytes"] == {
        "kind": "counter",
        "value": 4096,
        "unit": "bytes",
    }
    assert m["arena.rebroadcasts"]["value"] == 1
    assert m["accel_cache.hits"]["value"] == 3
    assert m["workers"]["value"] == 2
    assert m["shuffle_mode"]["value"] == "mesh"
    assert m["recovery.respawns"]["value"] == 1


def test_accel_cache_stats():
    cache = AccelCache(max_entries=4)
    cache.put("a", np.zeros(8, np.float32))
    cache.get("a")
    cache.get("missing")
    s = cache.stats()
    assert s["hits"] == 1 and s["misses"] == 1
    assert s["hit_rate"] == 0.5
    assert s["entries"] == 1 and s["nbytes"] == 32
    assert AccelCache().stats()["hit_rate"] is None


def test_jobstats_as_dict_telemetry_opt_in():
    stats = JobStats()
    stats.ring = {"stall_seconds": 0.0}
    stats.recovery = {"respawns": 1}
    stats.telemetry = {"schema": SCHEMA, "metrics": {}}
    base = stats.as_dict()
    assert "ring" not in base and "recovery" not in base
    assert "telemetry" not in base
    full = stats.as_dict(include_telemetry=True)
    assert full["ring"] == stats.ring
    assert full["recovery"] == stats.recovery
    assert full["telemetry"]["schema"] == SCHEMA
    # equality/asdict semantics of the dataclass are unaffected
    assert JobStats() == JobStats()


# -- ring stall span ---------------------------------------------------------
def test_ring_stall_records_interval_span():
    tr = enable_tracing()
    with ShmRing.create(1 << 12) as ring:
        ring.write_bytes(b"x" * 3000)

        def drain_later():
            time.sleep(0.05)
            ring.read_bytes(3000, timeout=5.0)

        t = threading.Thread(target=drain_later)
        t.start()
        ring.write_bytes(b"y" * 3000, timeout=5.0)  # must wait for space
        t.join()
    stalls = [ev for ev in tr.events if ev[0] == "ring-stall"]
    assert len(stalls) == 1
    name, cat, ts, dur, args = stalls[0]
    assert cat == "stall" and dur >= 40_000_000  # waited >= ~50 ms
    assert args["waited_for_bytes"] == 3000 and args["ring"]


# -- golden parity: tracer on/off --------------------------------------------
def test_traced_pool_render_matches_golden_smoke():
    """Tracing on: the pool render still reproduces the fixtures bitwise,
    and the merged timeline covers every stage with one track per worker
    plus the parent."""
    enable_tracing()
    with SharedMemoryPoolExecutor(workers=2) as pool:
        image, result = render_scene("skull_default_az40", pool)
    tr = disable_tracing()
    assert_matches_golden("skull_default_az40", image, result)

    doc = _trace_doc(tr)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["tid"] for e in spans} >= {0, 1, 2}  # parent + both workers
    families = {e["name"].split(":", 1)[0] for e in spans}
    assert families >= {"publish", "map", "shuffle-out", "shuffle-in", "reduce"}
    # one reduce span per worker per frame, naming the *job-level*
    # partitions it reduced (disjoint across workers, together all of
    # them) and carrying the frame seq
    reduces = [e for e in spans if e["name"].split(":", 1)[0] == "reduce"]
    assert {e["tid"] for e in reduces} == {1, 2}
    owned = [e["args"]["partitions"] for e in reduces]
    for e, parts in zip(reduces, owned):
        assert e["name"] == "reduce:partitions=" + ",".join(map(str, parts))
    assert sum(len(parts) for parts in owned) == len(result.pairs_per_reducer)
    assert set().union(*owned) == set(range(len(result.pairs_per_reducer)))
    assert all(e["args"]["frame"] == 1 for e in reduces)
    # spans nest laminarly per track (no partial overlap on a timeline)
    for tid in {e["tid"] for e in spans}:
        ivals = sorted(
            ((e["ts"], e["ts"] + e["dur"]) for e in spans if e["tid"] == tid)
        )
        open_stack = []
        for lo, hi in ivals:
            while open_stack and open_stack[-1] <= lo:
                open_stack.pop()
            assert all(hi <= top for top in open_stack), (
                f"partial overlap on tid {tid}"
            )
            open_stack.append(hi)
    # telemetry rode along on the same run
    tel = result.stats.telemetry
    assert tel["schema"] == SCHEMA
    assert tel["metrics"]["arena.publishes"]["value"] == 1
    assert tel["metrics"]["shuffle_mode"]["value"] == "mesh"


def test_untraced_pool_render_matches_golden_smoke():
    assert current_tracer() is None
    with SharedMemoryPoolExecutor(workers=2) as pool:
        image, result = render_scene("skull_default_az40", pool)
    assert_matches_golden("skull_default_az40", image, result)
    assert result.stats.telemetry["schema"] == SCHEMA  # metrics stay on


@pytest.mark.slow
@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("pipeline_depth", [1, 2])
def test_tracer_parity_matrix(traced, pipeline_depth):
    """Tracer on/off × pipeline depth: bitwise."""
    if traced:
        enable_tracing()
    with SharedMemoryPoolExecutor(
        workers=2, pipeline_depth=pipeline_depth
    ) as pool:
        image, result = render_scene("skull_default_az40", pool)
    assert_matches_golden("skull_default_az40", image, result)


def test_fault_plan_trace_tags_respawned_generation():
    """Under an injected crash the recovered render stays bitwise-golden
    and the timeline shows the respawn span plus generation-1 worker
    spans interleaved on the same tracks."""
    enable_tracing()
    with SharedMemoryPoolExecutor(
        workers=2,
        fault_plan="crash@map:worker=1,frame=1",
    ) as pool:
        image, result = render_scene("skull_default_az40", pool)
    tr = disable_tracing()
    assert_matches_golden("skull_default_az40", image, result)
    assert result.stats.recovery["respawns"] == 1

    doc = _trace_doc(tr)
    events = doc["traceEvents"]
    respawns = [e for e in events if e["name"] == "respawn" and e["ph"] == "X"]
    assert len(respawns) == 1 and respawns[0]["tid"] == 0
    assert respawns[0]["args"]["gen"] >= 1
    gens = {
        e["args"]["gen"]
        for e in events
        if e.get("ph") == "X" and e["tid"] > 0
    }
    assert {0, 1} <= gens
    marks = {e["name"] for e in events if e.get("ph") == "i"}
    assert {"supervisor:failure", "supervisor:respawn"} <= marks


# -- provenance ----------------------------------------------------------------
def test_collect_environment_and_load_means():
    env = collect_environment()
    assert env["cpu_count"] >= 1
    # The affinity-aware core count rides along: what the process can
    # actually run on, never more than the box has.
    assert 1 <= env["usable_cores"] <= env["cpu_count"]
    assert env["python"].count(".") == 2
    assert "timestamp" in env and "platform" in env
    # Whether the run wrote bytecode, and where, rides along: a cold
    # start compiled from source is not comparable with a cached one.
    assert env["dont_write_bytecode"] is sys.dont_write_bytecode
    assert env["pycache_prefix"] == sys.pycache_prefix


_PROVENANCE_CHILD = r"""
import sys
sys.path.insert(0, sys.argv[1])
from repro.bench.results import collect_environment
collect_environment()
analysis = ("repro.sim", "repro.baselines", "repro.perfmodel")
print(sorted(m for m in sys.modules
             if any(m == a or m.startswith(a + ".") for a in analysis)))
"""


def test_collect_environment_loads_no_simulator():
    # A benchmark child stamps its document with this block, in a fresh
    # interpreter; it must not pay for (or depend on) the analysis half.
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PROVENANCE_CHILD, src],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- CLI surfaces ------------------------------------------------------------
def test_cli_render_trace_and_stats_json(tmp_path, capsys):
    trace = tmp_path / "t.json"
    stats = tmp_path / "s.json"
    rc = main(
        [
            "render", "--dataset", "skull", "--size", "16", "--gpus", "2",
            "--image", "32", "--executor", "pool", "--workers", "2",
            "--reduce-mode", "worker",
            "--trace-out", str(trace), "--stats-json", str(stats),
            "--out", str(tmp_path / "r.ppm"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "measured stages:" in out and "map=" in out
    doc = json.loads(trace.read_text())
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert {e["tid"] for e in spans} >= {0, 1, 2}
    assert {e["name"].split(":", 1)[0] for e in spans} >= {
        "publish", "map", "reduce", "stitch",
    }
    payload = json.loads(stats.read_text())
    assert payload["telemetry"]["schema"] == SCHEMA
    assert "ring" in payload
    assert current_tracer() is None  # the command uninstalls its tracer


def test_cli_stats_json_inprocess_metric_set(tmp_path):
    """The exact telemetry an in-process ``--stats-json`` render prints:
    the map stage's four gauges, none with a unit."""
    stats = tmp_path / "s.json"
    rc = main(
        [
            "render", "--dataset", "skull", "--size", "16", "--gpus", "2",
            "--image", "32", "--executor", "inprocess",
            "--stats-json", str(stats), "--out", str(tmp_path / "r.ppm"),
        ]
    )
    assert rc == 0
    telemetry = json.loads(stats.read_text())["telemetry"]
    assert telemetry["schema"] == SCHEMA
    assert {
        name: (entry["kind"], entry.get("unit"))
        for name, entry in telemetry["metrics"].items()
    } == {
        "map.launches": ("gauge", None),
        "map.march": ("gauge", None),
        "map.march_reason": ("gauge", None),
        "map.positioned_samples": ("gauge", None),
    }


def test_cli_stats_json_pool_metric_set(tmp_path):
    """The exact telemetry a failure-free pool ``--stats-json`` render
    prints: the ring ledger per mesh edge, the arena's counters, the
    accel cache, the map stage and the pool's shape — no recovery."""
    stats = tmp_path / "s.json"
    rc = main(
        [
            "render", "--dataset", "skull", "--size", "16", "--gpus", "2",
            "--image", "32", "--executor", "pool", "--workers", "2",
            "--stats-json", str(stats), "--out", str(tmp_path / "r.ppm"),
        ]
    )
    assert rc == 0
    telemetry = json.loads(stats.read_text())["telemetry"]
    assert telemetry["schema"] == SCHEMA
    gauges = [
        "accel_cache.entries", "accel_cache.hit_rate", "accel_cache.hits",
        "accel_cache.misses", "accel_cache.nbytes",
        "frame_seq", "pipeline_depth", "reduce_mode", "shuffle_mode", "workers",
        "map.launches", "map.march", "map.march_reason", "map.positioned_samples",
        "ring.high_water_bytes", "ring.mesh_bytes_total", "ring.parent_run_bytes",
        "ring.queue_fallbacks", "ring.ring_capacity", "ring.shuffle_mode",
        "ring.stall_events", "ring.stall_seconds",
    ] + [
        f"ring.per_edge.{edge}.{field}"
        for edge in (0, 1)
        for field in ("dst", "high_water_bytes", "src", "stall_events", "stall_seconds")
    ]
    expected = {name: ("gauge", None) for name in gauges}
    expected.update({
        "arena.published_bytes": ("counter", "bytes"),
        "arena.publishes": ("counter", None),
        "arena.rebroadcasts": ("counter", None),
    })
    assert {
        name: (entry["kind"], entry.get("unit"))
        for name, entry in telemetry["metrics"].items()
    } == expected
    assert list(telemetry["metrics"]) == sorted(telemetry["metrics"])
