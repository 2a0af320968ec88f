#!/usr/bin/env python3
"""Compare two results files of ``run.py``: one row per (workload,
end-to-end metric), B against A.

    python3 benchmarks/e2e/compare.py A.json B.json

Verdicts: ``worse`` / ``better`` when B's value moved past the metric's
bound, ``within bound`` otherwise, and ``unresolved`` when inside either
file the estimates from the run's two interleaved halves of repeats
differ by more than the bound, so the files cannot tell.  Files from different environments, seeds,
``--seconds`` or from ``--quick`` runs are refused (exit 2); any
``worse`` or incorrect output exits 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import harness
from harness import END_TO_END

ENVIRONMENT_KEYS = ("usable_cores", "cpu_count", "python", "platform", "kernel_backend")


def worse_share(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    change = (b - a) / a
    return change if better == "lower" else -change


def verdict(a: float, b: float, better: str, bound: float, spread: float) -> str:
    if spread > bound:
        return "unresolved"
    share = worse_share(a, b, better)
    if share > bound:
        return "worse"
    if share < -bound:
        return "better"
    return "within bound"


def refusal(doc_a: dict, doc_b: dict):
    """Why the two documents cannot be compared, or None."""
    for doc in (doc_a, doc_b):
        if doc.get("quick"):
            return "a --quick file is never comparable"
    for key in ("schema", "seed", "seconds"):
        if doc_a.get(key) != doc_b.get(key):
            return f"{key} differs: {doc_a.get(key)!r} vs {doc_b.get(key)!r}"
    env_a, env_b = doc_a.get("environment") or {}, doc_b.get("environment") or {}
    for key in ENVIRONMENT_KEYS:
        if env_a.get(key) != env_b.get(key):
            return f"environment {key} differs: {env_a.get(key)!r} vs {env_b.get(key)!r}"
    return None


def repeat_spread(result: dict, metric: str) -> float:
    values = [row[metric] for row in result["detail"].get("halves", [])
              if metric in row]
    return harness.spread(values) if len(values) > 1 else 0.0


def compare(doc_a: dict, doc_b: dict) -> list:
    """Rows (workload, metric, a, b, worse share, spread, verdict)."""
    rows = []
    for name in doc_a["workloads"]:
        a = doc_a["workloads"][name].get("end_to_end")
        b = doc_b["workloads"].get(name, {}).get("end_to_end")
        if not a or not b:
            continue
        for metric, (_unit, better, bound) in END_TO_END.items():
            va, vb = a["metrics"][metric], b["metrics"][metric]
            spread = max(repeat_spread(a, metric), repeat_spread(b, metric))
            rows.append((name, metric, va, vb, worse_share(va, vb, better),
                         spread, verdict(va, vb, better, bound, spread)))
        if not (a["correct"] and b["correct"]):
            rows.append((name, "correct", float(a["correct"]), float(b["correct"]),
                         0.0, 0.0, "worse"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    why = refusal(doc_a, doc_b)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    rows = compare(doc_a, doc_b)
    print(f"{'workload':22s} {'metric':18s} {'A':>11s} {'B':>11s} "
          f"{'worse by':>9s} {'spread':>7s}  verdict")
    for name, metric, va, vb, share, spread, word in rows:
        print(f"{name:22s} {metric:18s} {va:11.4f} {vb:11.4f} "
              f"{share:+9.1%} {spread:7.1%}  {word}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
