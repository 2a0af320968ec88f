"""Self-tests of the e2e benchmark harness.

The fast tests render nothing: they pin the estimators, the seed ->
view derivation, the failure accounting, ``compare.py``'s verdicts and
the parity between ``BENCHMARK.json`` and the harness tables.  The
``slow`` test runs ``run.py --quick`` for real.
"""

import json
import re
import subprocess
import sys

import pytest

import api
import compare
import harness
import run

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- estimators -------------------------------------------------------------
def test_per_view_best_takes_the_minimum_per_view():
    assert harness.per_view_best([[3.0, 1.0, 5.0], [2.0, 4.0, 5.5]]) == [2.0, 1.0, 5.0]
    with pytest.raises(ValueError):
        harness.per_view_best([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        harness.per_view_best([])


def test_p90_of_100_views_has_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 101)]
    value, used = harness.tail_percentile(values, 90.0)
    assert (value, used) == (90.0, 90.0)
    assert sum(v > value for v in values) == 10


def test_tail_percentile_is_lowered_until_ten_samples_lie_beyond():
    values = [float(i) for i in range(1, 25)]  # 24 cold renders
    value, used = harness.tail_percentile(values, 90.0)
    assert sum(v > value for v in values) == 10
    assert 50.0 < used < 90.0
    # too few samples for any tail: the median, said so
    assert harness.tail_percentile([4.0, 1.0, 3.0, 2.0], 90.0) == (2.5, 50.0)


def test_frame_metrics():
    m = harness.frame_metrics([0.1] * 50 + [0.2] * 50)
    assert m["fps"] == pytest.approx(100 / 15.0)
    assert m["frame_ms_p50"] == pytest.approx(150.0)
    assert m["frame_ms_p90"] == pytest.approx(200.0)
    assert m["p90_percentile_used"] == 90.0


def test_arc_best_pools_a_view_with_its_neighbours_on_the_closed_orbit():
    assert harness.arc_best([5.0, 1.0, 5.0, 5.0, 4.0]) == [1.0, 1.0, 1.0, 4.0, 4.0]
    assert harness.arc_best([2.0]) == [2.0]
    # one disturbed view among undisturbed neighbours does not reach the tail
    lap = [0.1] * 100
    lap[40] = 0.3
    assert harness.frame_metrics(lap)["frame_ms_p90"] == pytest.approx(100.0)


def test_repeats_for_depends_on_the_arguments_only():
    assert harness.repeats_for(20.0, 13.0) == 2
    assert harness.repeats_for(40.0, 13.0) == 3
    assert harness.repeats_for(1.0, 13.0) == 2
    declared = harness.load_benchmark_json()["run_seconds"]
    assert [harness.repeats_for(declared, w["lap_s"])
            for w in harness.WORKLOADS.values()] == [4, 6, 6, 3]


def test_the_valve_gives_up_repeats_only_when_the_time_is_spent():
    opts = run.parse_args(["--seconds", "30"])
    repeats = run.Repeats(opts, 5.0)
    assert repeats.planned == 6 and repeats.more()
    repeats.results = [{}] * 5
    repeats.spent, repeats.longest = 30.0, 6.0
    assert repeats.more()  # 36 s of the 45 s
    repeats.spent, repeats.longest = 38.0, 9.0
    assert not repeats.more()
    repeats.results = [{}]
    assert repeats.more()  # a per-view best needs two
    repeats.results = [{}] * 6
    repeats.spent = 0.0
    assert not repeats.more()


# -- seed -> inputs ---------------------------------------------------------
def test_views_derive_from_the_seed_alone():
    a, b = harness.view_angles(7, 100), harness.view_angles(7, 100)
    assert a == b and len(a) == 100 + harness.N_WARMUP
    assert harness.view_angles(8, 100) != a
    az = [angle[0] for angle in a]
    assert az[-1] - az[harness.N_WARMUP] == pytest.approx(360.0 * 99 / 100)
    assert {angle[1] for angle in a} == {a[0][1]} and 10.0 <= a[0][1] <= 30.0
    cams = [api.orbit_camera((64, 64, 64), azimuth_deg=x, elevation_deg=y,
                             width=32, height=32) for x, y in a[:3]]
    again = [api.orbit_camera((64, 64, 64), azimuth_deg=x, elevation_deg=y,
                              width=32, height=32) for x, y in b[:3]]
    assert [c.eye for c in cams] == [c.eye for c in again]
    assert harness.layer_views(100, 12)[:3] == [0, 8, 16]


# -- failure accounting -----------------------------------------------------
def test_a_corrupted_digest_fails_every_frame_of_its_view():
    laps = [["a", "b", "c"], ["a", "b", "c"]]
    assert harness.failed_frames(laps, {0: "a"}, set()) == (0, [])
    assert harness.failed_frames(laps, {0: "X"}, set()) == (2, [0])
    laps[1][2] = "corrupt"
    assert harness.failed_frames(laps, {0: "a"}, set()) == (2, [2])
    assert harness.failed_frames(laps, {0: "a"}, {1}) == (4, [2])


def fake_spawn(corrupt: bool):
    """Stand-in for run.spawn: an oracle and orbit children that render
    nothing.  With ``corrupt`` the second repeat gets one wrong image."""
    digests = [f"d{i}" for i in range(harness.V_FULL)]
    orbit_children = []

    def spawn(plan):
        if plan["role"] == "oracle":
            return {"digests": digests[::harness.ORACLE_STRIDE], "leaked": [],
                    "reference_psnr_db": 60.0, "environment": {}, "usable_cores": 2}
        lap = list(digests)
        if corrupt and orbit_children:
            lap[3] = "corrupt"
        orbit_children.append(plan)
        return {"setup_s": 0.5, "cold_first_frame_s": 0.7, "import_s": 0.2,
                "frame_s": [0.1] * len(lap), "digests": lap, "leaked": [],
                "rss_self_mb": 100.0, "rss_child_mb": 50.0, "resolved": {},
                "counters": {}}

    return spawn


@pytest.mark.parametrize("corrupt", [False, True])
def test_wrong_image_means_failed_frames_and_nonzero_exit(
        corrupt, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "spawn", fake_spawn(corrupt))
    code = run.main(["--workload", "orbit-pool-sparse", "--trace", "0",
                     "--seconds", "10", "--out", str(tmp_path / "r.json")])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(harness.END_TO_END)
    assert line["attempted"] == 2 * harness.V_FULL
    if corrupt:
        assert code != 0 and not line["correct"] and line["failed"] == 2
    else:
        assert code == 0 and line["correct"] and line["failed"] == 0


# -- compare.py -------------------------------------------------------------
def test_verdicts():
    assert compare.verdict(100.0, 105.0, "lower", 0.10, 0.02) == "within bound"
    assert compare.verdict(100.0, 115.0, "lower", 0.10, 0.02) == "worse"
    assert compare.verdict(100.0, 85.0, "lower", 0.10, 0.02) == "better"
    assert compare.verdict(10.0, 8.5, "higher", 0.10, 0.02) == "worse"
    assert compare.verdict(10.0, 11.5, "higher", 0.10, 0.02) == "better"
    assert compare.verdict(100.0, 150.0, "lower", 0.10, 0.12) == "unresolved"


def document(fps: float, **top) -> dict:
    metrics = {name: 1.0 for name in harness.END_TO_END}
    metrics["fps"] = fps
    row = dict(metrics)
    return dict({
        "schema": "repro.e2e/v1", "quick": False, "seed": 1, "seconds": 20.0,
        "environment": {"usable_cores": 2, "python": "3.12"},
        "workloads": {"orbit-pool-dense": {"end_to_end": {
            "metrics": metrics, "correct": True,
            "detail": {"halves": [row, row]}}}},
    }, **top)


def test_compare_refuses_what_cannot_be_compared(tmp_path):
    base = document(10.0)
    assert compare.refusal(base, document(10.0)) is None
    assert "quick" in compare.refusal(base, document(10.0, quick=True))
    assert "seed" in compare.refusal(base, document(10.0, seed=2))
    other = document(10.0, environment={"usable_cores": 1, "python": "3.12"})
    assert "usable_cores" in compare.refusal(base, other)


def test_compare_exits_nonzero_on_worse(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(document(10.0)))
    b.write_text(json.dumps(document(7.0)))
    c.write_text(json.dumps(document(10.2)))
    assert compare.main([str(a), str(c)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
    b.write_text(json.dumps(document(7.0, quick=True)))
    assert compare.main([str(a), str(b)]) == 2


# -- BENCHMARK.json <-> harness ---------------------------------------------
def test_benchmark_json_matches_the_harness():
    doc = harness.load_benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= doc["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (name, spec["why"]) for name, spec in harness.WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [
        (name, *row) for name, row in harness.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, row[0], row[1]) for name, row in harness.PER_LAYER.items()]
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])


def test_names_units_and_bounds_are_well_formed():
    names = [*harness.WORKLOADS, *harness.END_TO_END, *harness.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(harness.NAME_RE.match(n) for n in names)
    assert not harness.NAME_RE.match(".hidden") and not harness.NAME_RE.match("a b")
    rows = [*harness.END_TO_END.values(), *harness.PER_LAYER.values()]
    assert all(UNIT_RE.match(r[0]) and r[1] in ("lower", "higher") for r in rows)
    assert all(0 < r[2] <= 0.25 for r in harness.END_TO_END.values())
    assert harness.END_TO_END["setup_s"][:2] == ("s", "lower")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in harness.WORKLOADS.values())
    e2e = set(harness.END_TO_END) | {"none"}
    assert all(r[2] in e2e for r in harness.PER_LAYER.values())


# -- the real thing, small --------------------------------------------------
@pytest.mark.slow
def test_quick_run_emits_every_declared_name_and_nothing_else(tmp_path):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(harness.HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(out.read_text())
    assert doc["quick"] is True
    assert set(doc["workloads"]) == set(harness.WORKLOADS)
    for name, passes in doc["workloads"].items():
        e2e, layers = passes["end_to_end"], passes["per_layer"]
        assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] >= 1
        assert layers["correct"] and layers["failed"] == 0
        assert set(harness.END_TO_END) <= set(e2e["metrics"])
        assert set(layers["metrics"]) == set(harness.PER_LAYER)
    assert json.loads(out.with_suffix(".trace.json").read_text())["traceEvents"]
