"""Benchmark regression harness over committed ``BENCH_*.json`` files.

:class:`ExperimentResults` is the reporting model behind ``repro
report``: it loads the committed pytest-benchmark kernel documents
(current / seed / optionally a previous PR's) plus the pool scaling
sweep, and derives comparison tables, environment-provenance checks,
and a regression verdict.  Every derived view is a lazily-computed
:func:`functools.cached_property` over the raw JSON — the fuzzbench
report idiom: a report (or a CI gate) only pays for the views it
actually renders, and each view is computed at most once per instance.

The CI gate is :meth:`check`: it fails when any kernel's current mean
exceeds its baseline mean by more than ``threshold`` (default 15%).
Comparisons default to *committed* file vs *committed* file, so the
gate is deterministic — machine noise only enters when a caller points
``--kernels`` at a freshly measured document, and then the environment
provenance (cpu_count, python, platform, git sha) stamped into every
``BENCH_*.json`` lets the report annotate cross-machine mismatches
instead of silently comparing apples to oranges.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Optional

from .reporting import format_table

__all__ = ["ExperimentResults", "collect_environment", "load_kernel_means"]


def collect_environment() -> dict:
    """Provenance block stamped into every benchmark JSON document.

    Enough to decide whether two documents are comparable (same
    machine shape, same interpreter, which commit produced them) —
    *not* a full hardware inventory.
    """
    env = {
        "cpu_count": os.cpu_count(),
        # The cores this process may actually run on: the pool sizes
        # itself from sched_getaffinity, so a cgroup/affinity-limited
        # container can report cpu_count=64 while time-slicing 2 cores —
        # two such documents are not comparable on cpu_count alone.
        "usable_cores": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    # The arithmetic contract both marches meet is NumPy's, so that is
    # the kernel backend of every document; ``march`` records which
    # implementation ran and ``march_reason`` why.  NumPy's enabled SIMD
    # dispatch targets say which CPU paths its ufuncs took.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    from ..render.kernels import resolve

    env["kernel_backend"] = "numpy"
    env["march"], env["march_reason"] = resolve()
    env["numpy_dispatch"] = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if proc.returncode == 0:
            env["git_sha"] = proc.stdout.strip()
    except Exception:  # git absent or not a checkout: provenance degrades
        pass
    return env


def load_kernel_means(path) -> dict:
    """``{benchmark name: stats.mean seconds}`` from one pytest-benchmark
    JSON document."""
    doc = json.loads(Path(path).read_text())
    return {
        b["name"]: float(b["stats"]["mean"]) for b in doc.get("benchmarks", [])
    }


def _environment_of(doc: dict) -> dict:
    """The comparable-environment summary of one loaded document.

    Prefers the explicit ``environment`` provenance block (stamped by
    the bench conftest / the parallel sweep); falls back to the fields
    pytest-benchmark records natively, so pre-provenance documents
    (the committed seed) still participate in mismatch checks.
    """
    env = doc.get("environment")
    if env:
        return dict(env)
    machine = doc.get("machine_info") or {}
    commit = doc.get("commit_info") or {}
    out = {}
    if machine:
        out["python"] = machine.get("python_version")
        out["platform"] = f"{machine.get('system')}-{machine.get('machine')}"
        cpu = machine.get("cpu") or {}
        if isinstance(cpu, dict) and cpu.get("count") is not None:
            out["cpu_count"] = cpu.get("count")
    if commit.get("id"):
        out["git_sha"] = commit["id"]
    return out


class ExperimentResults:
    """Comparison report over kernel (and pool) benchmark documents.

    Parameters are *paths*; nothing is read until a derived view is
    touched, and each view is computed once (``cached_property``).
    """

    #: Environment keys whose disagreement makes means incomparable.
    #: ``usable_cores`` participates because affinity-limited containers
    #: change effective parallelism without changing ``cpu_count``;
    #: documents predating the key (no ``usable_cores`` stamped) are
    #: simply not compared on it — the mismatch check skips keys absent
    #: on either side.
    #: ``numpy_dispatch`` joins for the same reason: means taken with
    #: NumPy on different SIMD paths compare CPUs, not commits.
    COMPARABLE_KEYS = (
        "cpu_count",
        "usable_cores",
        "python",
        "platform",
        "numpy_dispatch",
    )

    def __init__(
        self,
        kernels,
        baseline=None,
        previous=None,
        parallel=None,
        threshold: float = 0.15,
    ):
        self.kernels_path = Path(kernels)
        self.baseline_path = Path(baseline) if baseline else None
        self.previous_path = Path(previous) if previous else None
        self.parallel_path = Path(parallel) if parallel else None
        if threshold <= 0:
            raise ValueError("regression threshold must be positive")
        self.threshold = float(threshold)

    # -- raw documents -----------------------------------------------------
    @cached_property
    def current_doc(self) -> dict:
        return json.loads(self.kernels_path.read_text())

    @cached_property
    def baseline_doc(self) -> Optional[dict]:
        if self.baseline_path is None:
            return None
        return json.loads(self.baseline_path.read_text())

    @cached_property
    def previous_doc(self) -> Optional[dict]:
        if self.previous_path is None:
            return None
        return json.loads(self.previous_path.read_text())

    @cached_property
    def parallel_doc(self) -> Optional[dict]:
        if self.parallel_path is None or not self.parallel_path.exists():
            return None
        return json.loads(self.parallel_path.read_text())

    # -- kernel means ------------------------------------------------------
    @cached_property
    def current_means(self) -> dict:
        return {
            b["name"]: float(b["stats"]["mean"])
            for b in self.current_doc.get("benchmarks", [])
        }

    @cached_property
    def baseline_means(self) -> dict:
        if self.baseline_doc is None:
            return {}
        return {
            b["name"]: float(b["stats"]["mean"])
            for b in self.baseline_doc.get("benchmarks", [])
        }

    @cached_property
    def previous_means(self) -> dict:
        if self.previous_doc is None:
            return {}
        return {
            b["name"]: float(b["stats"]["mean"])
            for b in self.previous_doc.get("benchmarks", [])
        }

    # -- derived views -----------------------------------------------------
    @cached_property
    def kernel_table(self) -> list:
        """One row per kernel present in the current document: current
        mean, baseline/previous means where the same benchmark exists,
        and the current/baseline speed ratio (>1 means slower now)."""
        rows = []
        for name in sorted(self.current_means):
            cur = self.current_means[name]
            row = {"benchmark": name, "current_ms": cur * 1e3}
            base = self.baseline_means.get(name)
            if base is not None:
                row["baseline_ms"] = base * 1e3
                row["vs_baseline"] = cur / base if base > 0 else float("inf")
            prev = self.previous_means.get(name)
            if prev is not None:
                row["previous_ms"] = prev * 1e3
                row["vs_previous"] = cur / prev if prev > 0 else float("inf")
            rows.append(row)
        return rows

    def regressions(self, threshold: Optional[float] = None) -> list:
        """Kernels whose current mean exceeds the baseline mean by more
        than ``threshold`` (fraction, e.g. 0.15 = 15%)."""
        limit = self.threshold if threshold is None else float(threshold)
        out = []
        for row in self.kernel_table:
            ratio = row.get("vs_baseline")
            if ratio is not None and ratio > 1.0 + limit:
                out.append(
                    {
                        "benchmark": row["benchmark"],
                        "current_ms": row["current_ms"],
                        "baseline_ms": row["baseline_ms"],
                        "slowdown": ratio,
                    }
                )
        return out

    def check(self, threshold: Optional[float] = None) -> bool:
        """The CI gate: True when no kernel regressed past the threshold."""
        return not self.regressions(threshold)

    @cached_property
    def environments(self) -> dict:
        """Provenance summary per loaded document (for the report header)."""
        out = {"current": _environment_of(self.current_doc)}
        if self.baseline_doc is not None:
            out["baseline"] = _environment_of(self.baseline_doc)
        if self.previous_doc is not None:
            out["previous"] = _environment_of(self.previous_doc)
        if self.parallel_doc is not None:
            out["parallel"] = _environment_of(self.parallel_doc)
        return out

    @cached_property
    def environment_mismatches(self) -> list:
        """Keys on which a compared document's environment disagrees with
        the current one — means across a mismatch measure machines, not
        code, so the report prints these next to the verdict."""
        current = self.environments["current"]
        notes = []
        for label, env in self.environments.items():
            if label == "current":
                continue
            for key in self.COMPARABLE_KEYS:
                a, b = current.get(key), env.get(key)
                if a is not None and b is not None and a != b:
                    notes.append(f"{label}.{key}: {b!r} != current {a!r}")
        return notes

    @cached_property
    def parallel_summary(self) -> list:
        """Headline rows of the pool scaling sweep (the in-process
        baseline, then one per pool shape)."""
        if self.parallel_doc is None:
            return []
        rows = []
        for r in self.parallel_doc.get("results", []):
            rows.append(
                {
                    "executor": r.get("executor"),
                    "workers": r.get("workers"),
                    "depth": r.get("pipeline_depth"),
                    "fps": r.get("fps"),
                    "speedup": r.get("speedup_vs_inprocess"),
                }
            )
        return rows

    def render_report(self) -> str:
        """The human-readable ``repro report`` body."""
        lines = []
        baseline_name = (
            self.baseline_path.name if self.baseline_path else "(none)"
        )
        lines.append(
            f"kernel benchmarks: {self.kernels_path.name} "
            f"vs baseline {baseline_name}"
            + (
                f" vs previous {self.previous_path.name}"
                if self.previous_path
                else ""
            )
        )
        env = self.environments["current"]
        if env:
            lines.append(
                "environment: "
                + ", ".join(f"{k}={env[k]}" for k in sorted(env) if k != "timestamp")
            )
        for note in self.environment_mismatches:
            lines.append(f"environment mismatch: {note}")
        lines.append("")
        lines.append(format_table(self.kernel_table, title="kernel means"))
        regs = self.regressions()
        lines.append("")
        if regs:
            lines.append(
                f"REGRESSIONS (> {self.threshold:.0%} over baseline):"
            )
            for r in regs:
                lines.append(
                    f"  {r['benchmark']}: {r['baseline_ms']:.3f} ms -> "
                    f"{r['current_ms']:.3f} ms ({r['slowdown']:.2f}x)"
                )
        else:
            lines.append(
                f"no kernel regression beyond {self.threshold:.0%} of baseline"
            )
        if self.parallel_summary:
            lines.append("")
            lines.append(
                format_table(
                    self.parallel_summary, title="pool scaling sweep"
                )
            )
        return "\n".join(lines)
