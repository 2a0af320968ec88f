"""The traced run: per-layer numbers measured from outside the program.

Every span here is recorded by the benchmark around a call into a
layer's public function; nothing is added to the program.  Three parts,
each a role of ``child.py``:

``layers``  in one warm process: replays K views as the literal calls
            ``InProcessExecutor.execute`` makes (``SpanExecutor``), times
            ``BrickGrid.extract``, ``stitch_pixels`` and
            ``counting_sort_pairs`` directly, then drives the pool at
            depth 1 (submit/collect, ring counters), depth 2, and depth 2
            with the program's own tracer on (worker-side stage times are
            the one thing not reachable from outside a process);
``probe``   in a fresh process: what the first frame pays that later
            frames do not (import, dataset, construct, first frame, first
            sort call, close).

Per-view best-of-``reps`` is applied per layer, like the end-to-end
frame times; a layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import api
from child import build_renderer, build_scene, cameras, digest, stream_frames


# -- benchmark-side spans ---------------------------------------------------
class Spans:
    """In-memory span list: (name, start_ns, end_ns, parent index, frame)."""

    def __init__(self):
        self.events: list = []
        self._open: list = []
        self.frame = None

    @contextmanager
    def span(self, name: str):
        index = len(self.events)
        parent = self._open[-1] if self._open else None
        self.events.append(None)
        self._open.append(index)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._open.pop()
            self.events[index] = (name, t0, t1, parent, self.frame)

    def frame_totals(self) -> dict:
        """{frame: {name: [total_ms, self_ms]}} over the closed spans."""
        child_ns = [0] * len(self.events)
        for name, t0, t1, parent, _ in self.events:
            if parent is not None:
                child_ns[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _, frame) in enumerate(self.events):
            slot = out.setdefault(frame, {}).setdefault(name, [0.0, 0.0])
            slot[0] += (t1 - t0) / 1e6
            slot[1] += (t1 - t0 - child_ns[i]) / 1e6
        return out

    def chrome_trace(self) -> list:
        return [
            {"name": name, "ph": "X", "pid": 1, "tid": 0, "ts": t0 / 1e3,
             "dur": (t1 - t0) / 1e3,
             "args": {"frame": ":".join(map(str, frame or ())), "parent": parent}}
            for name, t0, t1, parent, frame in self.events
        ]


class _Spanned:
    """Forward everything to ``inner``; run ``method`` inside a span."""

    def __init__(self, inner, method: str, spans: Spans, name: str):
        self._inner = inner
        call = getattr(inner, method)

        def spanned(*args, **kwargs):
            with spans.span(name):
                return call(*args, **kwargs)

        setattr(self, method, spanned)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class SpanExecutor:
    """``InProcessExecutor.execute`` call for call, each layer boundary in
    a benchmark-side span.  Passed to the renderer as ``executor=``, so the
    renderer itself builds the spec and the chunks."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.last = None  # (spec, runs_per_chunk, outputs) of the last frame

    def execute(self, spec, chunks, chunk_to_gpu=None):
        spans = self.spans
        spec.mapper.initialize()
        spec.reducer.initialize()
        traced = replace(
            spec,
            mapper=_Spanned(spec.mapper, "map", spans, "render.map"),
            reducer=_Spanned(spec.reducer, "reduce_all", spans, "render.reduce_all"),
        )
        stats = api.JobStats()
        works, runs_per_chunk = [], []
        for ci, chunk in enumerate(chunks):
            with spans.span("core.map_chunk_to_runs"):
                runs, emitted, kept, work, routed = api.map_chunk_to_runs(traced, chunk)
            runs_per_chunk.append(runs)
            stats.add_map(work, emitted, kept)
            gpu = chunk_to_gpu[ci] if chunk_to_gpu is not None else 0
            works.append(api.make_map_work(chunk, gpu, emitted, work, routed))
        with spans.span("core.merge_partition_runs"):
            outputs, pairs_per_reducer = api.merge_partition_runs(traced, runs_per_chunk)
        self.last = (spec, runs_per_chunk, outputs)
        return api.InProcessResult(
            outputs=outputs, stats=stats,
            pairs_per_reducer=pairs_per_reducer, works=works,
        )


# -- helpers ----------------------------------------------------------------
def calibrate() -> float:
    """Median ms of a fixed NumPy gather + scan: the box's speed today."""
    rng = np.random.default_rng(0)
    table = rng.random(1 << 16).astype(np.float32)
    index = rng.integers(0, 1 << 16, size=1 << 18)
    times = []
    for _ in range(25):
        t0 = time.perf_counter()
        np.cumprod(1.0 - 0.001 * table.take(index)).sum()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def mean_of_view_best(samples: list) -> float:
    """samples[rep][view] -> mean over views of the best over reps."""
    return statistics.fmean(min(col) for col in zip(*samples))


# -- role: layers -----------------------------------------------------------
def replay(plan, scene, volume, tf, config, cams, spans: Spans, checks: list):
    """In-process layer breakdown of the K views: (metrics, view digests)."""
    bpg, reps = scene["bricks_per_gpu"], plan["reps"]
    grid = api.bricks_for_gpu_count(volume.shape, scene["gpus"], bpg)
    tracing = SpanExecutor(spans)
    plain = build_renderer(api, scene, volume, tf, config, {"executor": "inprocess"})
    traced = build_renderer(api, scene, volume, tf, config, {"executor": tracing})
    digests, counters = [], []
    plain.render(cams[0], bricks_per_gpu=bpg)  # first-touch caches
    for rep in range(reps):
        for vi, cam in enumerate(cams):
            spans.frame = ("replay", vi, rep)
            with spans.span("pipeline.render"):
                want = plain.render(cam, bricks_per_gpu=bpg)
            got = traced.render(cam, bricks_per_gpu=bpg)
            with spans.span("volume.extract"):
                for brick in grid:
                    grid.extract(volume, brick)
            _, _, outputs = tracing.last
            parts = [(k, v) for k, v in outputs if len(k)]
            with spans.span("render.stitch"):
                api.stitch_pixels(parts, cam.width, cam.height)
            if rep == 0:
                digests.append(digest(want.image))
                checks.append(digest(got.image) == digests[vi])
                counters.append((want.stats.n_samples, want.stats.n_pairs_kept))
    spans.frame = None
    totals = spans.frame_totals()

    def per_frame(name: str, own: bool = False) -> float:
        """ms per frame of span ``name`` (its self time with ``own``):
        per-view best over the reps, averaged over the views."""
        return mean_of_view_best([
            [totals[("replay", vi, rep)][name][own] for vi in range(len(cams))]
            for rep in range(reps)
        ])

    # counting_sort_pairs directly, on the last frame's real partitions
    spec, runs_per_chunk, _ = tracing.last
    received = [
        np.concatenate([runs[r] for runs in runs_per_chunk])
        for r in range(spec.n_reducers)
    ]
    sort_s = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for pairs in received:
            api.counting_sort_pairs(pairs, spec.kv.key_field, 0, spec.max_key)
        sort_s.append(time.perf_counter() - t0)
    n_pairs = sum(len(p) for p in received)

    samples = statistics.fmean(c[0] for c in counters)
    fragments = statistics.fmean(c[1] for c in counters)
    m = {
        "pipeline.render_ms": per_frame("pipeline.render"),
        "volume.extract_ms": per_frame("volume.extract"),
        "render.map_ms": per_frame("render.map"),
        "core.partition_ms": per_frame("core.map_chunk_to_runs", own=True),
        "core.merge_self_ms": per_frame("core.merge_partition_runs", own=True),
        "render.composite_ms": per_frame("render.reduce_all"),
        "render.stitch_ms": per_frame("render.stitch"),
        "render.samples": samples,
        "render.fragments": fragments,
        "core.sort_ns_per_pair": 1e9 * min(sort_s) / max(n_pairs, 1),
    }
    m["render.map_ns_per_sample"] = 1e6 * m["render.map_ms"] / samples
    m["render.composite_ns_per_fragment"] = 1e6 * m["render.composite_ms"] / fragments
    m["pipeline.overhead_ms"] = m["pipeline.render_ms"] - sum(
        m[k] for k in ("volume.extract_ms", "render.map_ms", "core.partition_ms",
                       "core.merge_self_ms", "render.composite_ms", "render.stitch_ms")
    )
    return m, digests


def worker_stages(tracer, n_warmup: int) -> dict:
    """Per frame, the slowest worker's time in each stage (the critical
    path, not the sum), averaged over the timed frames; plus shuffle
    records per frame."""
    stage_of = {"map": "map", "shuffle-out": "shuffle", "shuffle-in": "shuffle",
                "reduce": "reduce"}
    busy: dict = {}
    records: dict = {}
    for worker, _gen, (name, _cat, _ts, dur_ns, args) in tracer.all_events():
        stage = stage_of.get(name.split(":", 1)[0])
        frame = (args or {}).get("frame")
        if worker is None or stage is None or dur_ns is None or frame is None:
            continue
        if frame <= n_warmup:
            continue
        key = (frame, stage)
        busy.setdefault(key, {}).setdefault(worker, 0.0)
        busy[key][worker] += dur_ns / 1e6
        if name == "shuffle-in":
            records[frame] = records.get(frame, 0) + int(args.get("records", 0))
    out = {}
    for stage in ("map", "shuffle", "reduce"):
        per_frame = [max(w.values()) for (f, s), w in busy.items() if s == stage]
        out[f"parallel.worker_{stage}_ms"] = statistics.fmean(per_frame)
    out["parallel.records"] = statistics.fmean(records.values())
    return out


def pool_passes(plan, scene, volume, tf, config, cams, warm, spans, digests, checks):
    bpg, reps = scene["bricks_per_gpu"], plan["reps"]
    n_views = len(cams)
    m = {}

    def check(vi, result):
        checks.append(digest(result.image) == digests[vi])

    # depth 1: submit and collect apart, ring counters per frame
    submit = [[0.0] * n_views for _ in range(reps)]
    collect = [[0.0] * n_views for _ in range(reps)]
    ring_rows = []
    with build_renderer(api, scene, volume, tf, config,
                        dict(plan["exec"], pipeline_depth=1)) as r:
        for cam in warm:
            r.render(cam, bricks_per_gpu=bpg)
        for rep in range(reps):
            for vi, cam in enumerate(cams):
                spans.frame = ("depth1", vi, rep)
                t0 = time.perf_counter()
                with spans.span("parallel.submit_frame"):
                    handle = r.submit_frame(cam, bricks_per_gpu=bpg)
                t1 = time.perf_counter()
                with spans.span("parallel.collect_frame"):
                    result = r.collect_frame(handle)
                t2 = time.perf_counter()
                submit[rep][vi], collect[rep][vi] = t1 - t0, t2 - t1
                ring_rows.append(result.stats.ring or {})
                if rep == 0:
                    check(vi, result)
        spans.frame = None
    m["parallel.submit_ms"] = 1e3 * mean_of_view_best(submit)
    m["parallel.collect_ms"] = 1e3 * mean_of_view_best(collect)
    m["parallel.frame_ms_depth1"] = 1e3 * mean_of_view_best(
        [[s + c for s, c in zip(srow, crow)] for srow, crow in zip(submit, collect)]
    )

    def ring_mean(key):
        return statistics.fmean(float(row.get(key, 0) or 0) for row in ring_rows)

    m["parallel.shuffle_mb"] = ring_mean("mesh_bytes_total") / 2**20
    m["parallel.ring_stall_events"] = ring_mean("stall_events")
    m["parallel.queue_fallbacks"] = ring_mean("queue_fallbacks")
    m["parallel.parent_run_bytes"] = ring_mean("parent_run_bytes")

    # depth 2, tracer off then on: same views, same stream
    def depth2(traced: bool):
        tracer = api.enable_tracing() if traced else None
        frames: list = []
        try:
            with build_renderer(api, scene, volume, tf, config,
                                dict(plan["exec"], pipeline_depth=2)) as r:
                def on_frame(result, seconds):
                    vi = (len(frames) - len(warm)) % n_views
                    if len(warm) <= len(frames) < len(warm) + n_views:
                        check(vi, result)
                    frames.append(seconds)
                stream_frames(r, warm + cams * reps, bpg, on_frame)
        finally:
            if traced:
                api.disable_tracing()
        timed = frames[len(warm):]
        laps = [timed[i * n_views:(i + 1) * n_views] for i in range(reps)]
        return mean_of_view_best(laps), tracer

    plain_s, _ = depth2(False)
    traced_s, tracer = depth2(True)
    m["parallel.frame_ms_depth2"] = 1e3 * plain_s
    m["parallel.pipeline_gain"] = m["parallel.frame_ms_depth1"] / m["parallel.frame_ms_depth2"]
    m["observability.trace_overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    m.update(worker_stages(tracer, len(warm)))
    return m


def run_layers(plan: dict) -> dict:
    calib = [calibrate()]
    scene = plan["scene"]
    volume, tf, config = build_scene(api, scene)
    all_cams = cameras(api, volume, scene, plan["angles"])
    warm, cams = all_cams[:plan["n_warmup"]], all_cams[plan["n_warmup"]:]
    spans = Spans()
    checks: list = []
    metrics, digests = replay(plan, scene, volume, tf, config, cams, spans, checks)
    metrics.update(
        pool_passes(plan, scene, volume, tf, config, cams, warm, spans, digests, checks)
    )
    workers = plan["exec"]["workers"]
    metrics["parallel.speedup_vs_serial"] = (
        metrics["pipeline.render_ms"] / metrics["parallel.frame_ms_depth2"]
    )
    metrics["parallel.efficiency"] = metrics["parallel.speedup_vs_serial"] / workers
    calib.append(calibrate())
    metrics["machine.calib_ms"] = statistics.fmean(calib)
    return {
        "metrics": metrics,
        "checks": checks,
        "calib_ms": calib,
        "digest_view0": digests[0],
        "trace_events": spans.chrome_trace(),
    }


# -- role: probe ------------------------------------------------------------
def run_probe(plan: dict, t_start: float, t_imported: float) -> dict:
    """First-frame costs of a fresh process.  ``t_start`` is taken before
    ``import api``; this module was imported right after."""
    scene = plan["scene"]
    bpg = scene["bricks_per_gpu"]
    pool = plan["exec"]["executor"] == "pool"
    out = {"import_ms": 1e3 * (t_imported - t_start)}
    t0 = time.perf_counter()
    volume, tf, config = build_scene(api, scene)
    t1 = time.perf_counter()
    spans = Spans()
    exec_kw = plan["exec"] if pool else {"executor": SpanExecutor(spans)}
    renderer = build_renderer(api, scene, volume, tf, config, exec_kw)
    t2 = time.perf_counter()
    cam = cameras(api, volume, scene, plan["angles"])[0]
    frame_ms, images = [], []
    for i in range(2):  # the same view twice: cold, then warm
        spans.frame = ("probe", i)
        t = time.perf_counter()
        images.append(renderer.render(cam, bricks_per_gpu=bpg).image)
        frame_ms.append(1e3 * (time.perf_counter() - t))
    t3 = time.perf_counter()
    renderer.close()
    t4 = time.perf_counter()
    out.update(
        make_dataset_ms=1e3 * (t1 - t0), construct_ms=1e3 * (t2 - t1),
        first_frame_ms=frame_ms[0], second_frame_ms=frame_ms[1],
        close_ms=1e3 * (t4 - t3),
        digests=[digest(im) for im in images],
    )
    if pool:
        # The parent of a worker-reduce pool never sorts, so this process's
        # first counting_sort_pairs call is still a first call.
        rng = np.random.default_rng(0)
        pairs = np.zeros(4096, dtype=api.FRAGMENT_DTYPE)
        pairs["pixel"] = rng.integers(0, 1 << 16, size=len(pairs))
        sort_ms = []
        for _ in range(2):
            t = time.perf_counter()
            api.counting_sort_pairs(pairs, "pixel", 0, (1 << 16) - 1)
            sort_ms.append(1e3 * (time.perf_counter() - t))
        out["sort_first_call_ms"] = sort_ms[0] - sort_ms[1]
    else:
        totals = spans.frame_totals()
        out["map_first_extra_ms"] = (
            totals[("probe", 0)]["render.map"][0] - totals[("probe", 1)]["render.map"][0]
        )
    return out
