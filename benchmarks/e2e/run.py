#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the MapReduce volume renderer.

    python3 benchmarks/e2e/run.py [--seed S]            # every workload, both passes
    python3 benchmarks/e2e/run.py --workload orbit-pool-dense --seed 3 \\
            --seconds 30 --trace 0                      # what BENCHMARK.json declares

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the traced run that yields the per-layer metrics.  With
``--workload`` and ``--trace`` the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when an output was wrong.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
from child import run_group
from harness import END_TO_END, HERE, PER_LAYER, ROOT, SCENES, WORKLOADS

SRC = ROOT / "src"
RESULTS = HERE / "results"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 170.0
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# A run stops repeating once its children have used this many times
# ``--seconds``: on a slow day it gives up repeats, not the driver's cap.
VALVE = 1.5
# The bricked image against the single-pass reference renderer.  Early
# ray termination per brick makes them differ slightly on the sparse
# scene; a wrong image is tens of dB away.
MIN_REFERENCE_PSNR_DB = 40.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The children's environment: single-threaded BLAS, every REPRO_*
    knob unset, the program importable from this checkout only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({pin: "1" for pin in THREAD_PINS})
    env["PYTHONPATH"] = str(SRC)
    return env


def leak_snapshot() -> set:
    """Shared-memory segments and socket files the program may own."""
    found = set()
    for folder, prefixes in (
        (Path("/dev/shm"), ("psm_", "repro_")),
        (Path(tempfile.gettempdir()), ("repro_sock_",)),
    ):
        if folder.is_dir():
            found.update(
                str(p) for p in folder.iterdir() if p.name.startswith(prefixes)
            )
    return found


def spawn(plan: dict) -> dict:
    """Run one measuring child to completion; return its result plus the
    shm segments / socket files it left behind."""
    before = leak_snapshot()
    plan = dict(plan, spawn_wall=time.time())
    code, out, err = run_group(
        [sys.executable, str(CHILD)], CHILD_TIMEOUT_S, input=json.dumps(plan),
        env=child_env(), cwd=str(ROOT),
    )
    if code != 0:
        what = "timed out" if code is None else f"exited {code}"
        raise ChildFailed(f"{plan['role']} child {what}:\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["leaked"] = sorted(leak_snapshot() - before)
    return result


class Repeats:
    """The children of one workload's repeats, with the valve: ``more()``
    is false once ``planned`` are done, or once two are done and another
    as long as the longest so far would pass VALVE x ``--seconds``."""

    def __init__(self, opts, lap_s: float):
        self.planned = opts.repeats or harness.repeats_for(opts.seconds, lap_s)
        self.limit = VALVE * opts.seconds
        self.spent = self.longest = 0.0
        self.results: list = []

    def more(self) -> bool:
        done = len(self.results)
        if done >= 2 and self.spent + self.longest > self.limit:
            return False
        return done < self.planned

    def run(self, plan: dict) -> None:
        t0 = time.perf_counter()
        self.results.append(spawn(plan))
        took = time.perf_counter() - t0
        self.spent += took
        self.longest = max(self.longest, took)


# -- workloads --------------------------------------------------------------
# Each pass over a workload is a generator that yields after every child
# it runs, so run_interleaved() can round-robin several workloads and slow
# drift of the box lands on all of them alike.  Its return value is
# {"metrics", "attempted", "failed", "correct", "detail"}.

def over_repeats(per_repeat: list) -> dict:
    """The metrics taken over the repeats' fresh processes.  Set-up and
    memory are medians; the time to the first image is, like every frame
    time, the best of the repeats (they all render the same view)."""
    return {
        "setup_s": statistics.median(row["setup_s"] for row in per_repeat),
        "peak_rss_mb": statistics.median(row["peak_rss_mb"] for row in per_repeat),
        "cold_render_s_p50": min(row["cold_render_s_p50"] for row in per_repeat),
    }


def halves(estimate, repeats: list) -> list:
    """The estimate from every other repeat, twice: how far a run's two
    interleaved halves disagree is what compare.py takes for its spread."""
    return [estimate(repeats[i::2]) for i in (0, 1)] if len(repeats) > 1 else []


def orbit_workload(name: str, opts):
    spec = WORKLOADS[name]
    scene = SCENES[spec["scene"]]
    n_views = opts.views
    angles = harness.view_angles(opts.seed, n_views)
    lap_angles = angles[harness.N_WARMUP:]
    sampled = list(range(0, n_views, harness.ORACLE_STRIDE))
    oracle = spawn({
        "role": "oracle", "scene": scene,
        "angles": [lap_angles[i] for i in sampled],
    })
    yield
    repeats = Repeats(opts, spec["lap_s"])
    while repeats.more():
        repeats.run({
            "role": "orbit", "scene": scene, "exec": spec["exec"],
            "angles": angles, "n_warmup": harness.N_WARMUP,
        })
        yield
    children = repeats.results

    def estimate(group: list) -> dict:
        """The workload's metrics from these children alone."""
        m = harness.frame_metrics(harness.per_view_best([c["frame_s"] for c in group]))
        m.update(over_repeats([
            {"setup_s": c["setup_s"], "cold_render_s_p50": c["cold_first_frame_s"],
             "peak_rss_mb": c["rss_self_mb"] + c["rss_child_mb"]}
            for c in group
        ]))
        return m

    laps = [c["frame_s"] for c in children]
    failed, bad_views = harness.failed_frames(
        [c["digests"] for c in children],
        expected=dict(zip(sampled, oracle["digests"])),
        leaky={i for i, c in enumerate(children) if c["leaked"]},
    )
    reference_ok = oracle["reference_psnr_db"] >= MIN_REFERENCE_PSNR_DB
    return {
        "metrics": estimate(children),
        "attempted": n_views * len(laps),
        "failed": failed,
        "correct": failed == 0 and reference_ok and not oracle["leaked"],
        "detail": {
            "samples": {"views": n_views, "repeats": len(laps),
                        "planned": repeats.planned},
            "frame_s": laps,
            "raw": harness.frame_metrics([t for lap in laps for t in lap]),
            "per_repeat": [estimate([c]) for c in children],
            "halves": halves(estimate, children),
            "bad_views": bad_views,
            "leaked": sorted(p for c in children for p in c["leaked"]),
            "reference_psnr_db": oracle["reference_psnr_db"],
            "import_s": [c["import_s"] for c in children],
            "resolved": children[0]["resolved"],
            "counters": children[0]["counters"],
            "environment": oracle["environment"],
            "usable_cores": oracle["usable_cores"],
        },
    }


def cli_argv(scene: dict, exec_kw: dict, azimuth: float, elevation: float) -> list:
    argv = [
        sys.executable, "-m", "repro", "render",
        "--dataset", scene["dataset"], "--size", str(scene["size"]),
        "--gpus", str(scene["gpus"]), "--image", str(scene["image"]),
        "--dt", str(scene["dt"]),
        "--azimuth", repr(azimuth), "--elevation", repr(elevation),
        "--executor", exec_kw["executor"],
    ]
    if exec_kw["executor"] == "pool":
        argv += ["--workers", str(exec_kw["workers"]),
                 "--reduce-mode", exec_kw["reduce_mode"]]
    return argv


def cold_plan(scene: dict, angle, n: int) -> dict:
    RESULTS.mkdir(exist_ok=True)
    return {
        "role": "cold", "n": n, "out_dir": str(RESULTS),
        "timeout_s": CHILD_TIMEOUT_S - 20.0,
        "argv": cli_argv(scene, WORKLOADS["cold-cli"]["exec"], *angle),
        "oracle_argv": cli_argv(scene, harness.SERIAL, *angle),
    }


def cold_failures(launcher: dict) -> int:
    """Timed renders of one launcher whose PPM is not the oracle's; all of
    them when the launcher's own set-up or clean-up went wrong."""
    want = launcher["oracle_digest"]
    if want.startswith("!") or launcher["discarded_digest"] != want or launcher["leaked"]:
        return len(launcher["digests"])
    return sum(1 for d in launcher["digests"] if d != want)


def cold_workload(name: str, opts):
    spec = WORKLOADS[name]
    scene = SCENES[spec["scene"]]
    angle = harness.view_angles(opts.seed, 1)[harness.N_WARMUP]
    repeats = Repeats(opts, spec["lap_s"])
    while repeats.more():
        repeats.run(cold_plan(scene, angle, opts.cold_chunk))
        yield
    launchers = repeats.results

    def estimate(group: list) -> dict:
        """The workload's metrics from these launchers alone.  Every
        render is of the same view, so the per-view best is the best of
        all of them and the percentiles over views coincide with it."""
        best = min(t for c in group for t in c["times_s"])
        m = harness.frame_metrics([best])
        m.update(over_repeats([
            {"setup_s": c["setup_s"], "cold_render_s_p50": best,
             "peak_rss_mb": c["rss_self_mb"] + c["rss_child_mb"]}
            for c in group
        ]))
        return m

    times = [t for c in launchers for t in c["times_s"]]
    failed = sum(cold_failures(c) for c in launchers)
    return {
        "metrics": estimate(launchers),
        "attempted": len(times),
        "failed": failed,
        "correct": failed == 0
        and len({c["oracle_digest"] for c in launchers}) == 1,
        "detail": {
            "samples": {"renders": len(times), "launchers": len(launchers),
                        "planned": repeats.planned},
            "raw_p50_s": statistics.median(times),
            "times_s": [c["times_s"] for c in launchers],
            "per_repeat": [estimate([c]) for c in launchers],
            "halves": halves(estimate, launchers),
            "errors": [d for c in launchers for d in
                       [c["oracle_digest"], c["discarded_digest"], *c["digests"]]
                       if d.startswith("!")],
            "leaked": sorted(p for c in launchers for p in c["leaked"]),
        },
    }


def traced_workload(name: str, opts):
    """The traced run on this workload's scene: every per-layer metric."""
    scene = SCENES[WORKLOADS[name]["scene"]]
    angles = harness.view_angles(opts.seed, opts.views)
    warm, lap = angles[:harness.N_WARMUP], angles[harness.N_WARMUP:]
    k = opts.layer_views or max(2, min(12, int(opts.seconds // 3)))
    picked = [lap[i] for i in harness.layer_views(len(lap), k)]
    layers = spawn({
        "role": "layers", "scene": scene, "exec": harness.POOL,
        "angles": warm + picked, "n_warmup": harness.N_WARMUP,
        "reps": opts.layer_reps,
    })
    yield
    cold_exec = WORKLOADS["cold-cli"]["exec"]
    probes = {"inprocess": [], "pool": []}
    launchers = []
    for _ in range(opts.probe_repeats):
        for kind, exec_kw in (("inprocess", harness.SERIAL), ("pool", cold_exec)):
            probes[kind].append(spawn({
                "role": "probe", "scene": scene, "exec": exec_kw,
                "angles": picked[:1],
            }))
            yield
        launchers.append(spawn(cold_plan(scene, picked[0], 1)))
        yield

    def best(rows, key):
        return min(row[key] for row in rows)

    everyone = probes["inprocess"] + probes["pool"]
    m = dict(layers["metrics"])
    m["cli.import_ms"] = best(everyone, "import_ms")
    m["volume.make_dataset_ms"] = best(everyone, "make_dataset_ms")
    m["pipeline.construct_ms"] = best(everyone, "construct_ms")
    m["pipeline.first_frame_ms"] = best(probes["inprocess"], "first_frame_ms")
    m["render.map_first_extra_ms"] = best(probes["inprocess"], "map_first_extra_ms")
    m["parallel.first_frame_ms"] = best(probes["pool"], "first_frame_ms")
    m["core.sort_first_call_ms"] = best(probes["pool"], "sort_first_call_ms")
    m["parallel.close_ms"] = best(probes["pool"], "close_ms")
    m["cli.cold_serial_ms"] = 1e3 * best(launchers, "oracle_s")
    cold_pool_ms = 1e3 * min(t for c in launchers for t in c["times_s"])
    m["cli.overhead_ms"] = cold_pool_ms - sum(
        m[key] for key in ("cli.import_ms", "volume.make_dataset_ms",
                           "pipeline.construct_ms", "parallel.first_frame_ms",
                           "parallel.close_ms")
    )

    checks = list(layers["checks"])
    checks += [d == layers["digest_view0"] for p in everyone for d in p["digests"]]
    checks += [not p["leaked"] for p in [layers, *everyone]]
    cold_failed = sum(cold_failures(c) for c in launchers)
    attempted = len(checks) + sum(len(c["digests"]) for c in launchers)
    failed = checks.count(False) + cold_failed
    return {
        "metrics": m,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "detail": {
            "samples": {"views": k, "reps": opts.layer_reps,
                        "probes": opts.probe_repeats},
            "calib_ms": layers["calib_ms"],
            "cold_pool_ms": cold_pool_ms,
            "probes": probes,
            "trace_events": layers["trace_events"],
        },
    }


PASSES = {"orbit": orbit_workload, "cold": cold_workload}


def run_interleaved(names: list, opts, trace: int) -> dict:
    running = {
        n: traced_workload(n, opts) if trace else PASSES[WORKLOADS[n]["kind"]](n, opts)
        for n in names
    }
    done = {}
    while running:
        for name in list(running):
            try:
                next(running[name])
            except StopIteration as stop:
                done[name] = stop.value
                del running[name]
    return {n: done[n] for n in names}


# -- output -----------------------------------------------------------------
def metric_table(trace: int) -> dict:
    return PER_LAYER if trace else END_TO_END


def contract_line(result: dict, trace: int) -> str:
    table = metric_table(trace)
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": table[name][0]}
            for name in table
        },
    })


def print_pass(results: dict, trace: int) -> None:
    table = metric_table(trace)
    for name, res in results.items():
        print(f"== {name} [{'traced' if trace else 'end-to-end'}] "
              f"samples={res['detail']['samples']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        unresolved = (
            not trace and WORKLOADS[name]["exec"]["executor"] == "pool"
            and res["detail"].get("usable_cores", 2) < 2
        )
        for metric, row in table.items():
            note = "  unresolved: more processes than cores" if unresolved else ""
            print(f"   {metric:34s} {res['metrics'][metric]:14.4f} {row[0]}{note}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="run one workload (default: all, interleaved)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time one pass over one workload aims for")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end pass, 1: traced per-layer pass "
                         "(default: both)")
    ap.add_argument("--quick", action="store_true",
                    help="smoke run (V=8, R=1, N=3, K=2); never comparable")
    ap.add_argument("--out", default=None,
                    help="results file (default: results/latest.json)")
    opts = ap.parse_args(argv)
    quick = opts.quick
    opts.views = 8 if quick else harness.V_FULL
    opts.repeats = 1 if quick else None
    opts.cold_chunk = 3 if quick else harness.COLD_CHUNK
    opts.layer_views = 2 if quick else None
    opts.layer_reps = 1 if quick else 3
    opts.probe_repeats = 1 if quick else 2
    return opts


def main(argv=None) -> int:
    opts = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure under {SRC}", file=sys.stderr)
        return 2
    names = [opts.workload] if opts.workload else list(WORKLOADS)
    passes = [0, 1] if opts.trace is None else [opts.trace]
    document = {
        "schema": "repro.e2e/v1", "quick": opts.quick, "seed": opts.seed,
        "seconds": opts.seconds, "thread_pins": list(THREAD_PINS),
        "workloads": {n: {} for n in names},
    }
    trace_events = []
    try:
        for trace in passes:
            results = run_interleaved(names, opts, trace)
            print_pass(results, trace)
            for name, res in results.items():
                detail = res["detail"]
                if "trace_events" in detail:  # one trace process per workload
                    pid = names.index(name) + 1
                    trace_events.append({"ph": "M", "pid": pid, "name": "process_name",
                                         "args": {"name": name}})
                    trace_events += [dict(ev, pid=pid) for ev in detail.pop("trace_events")]
                if "environment" in detail:
                    document["environment"] = dict(
                        detail.pop("environment"), usable_cores=detail["usable_cores"])
                document["workloads"][name]["per_layer" if trace else "end_to_end"] = res
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    out = Path(opts.out) if opts.out else RESULTS / "latest.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    if trace_events:
        trace_path = out.with_suffix(".trace.json")
        trace_path.write_text(json.dumps({"traceEvents": trace_events}) + "\n")
        print(f"trace: {trace_path} (open at ui.perfetto.dev)")
    print(f"results: {out}")
    if opts.workload and opts.trace is not None:
        print(contract_line(results[opts.workload], opts.trace))
    return 0 if all(
        res["correct"] for per in document["workloads"].values() for res in per.values()
    ) else 1


if __name__ == "__main__":
    sys.exit(main())
