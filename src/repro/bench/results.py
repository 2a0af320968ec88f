"""Environment provenance for benchmark documents.

:func:`collect_environment` is the block the end-to-end harness
(``benchmarks/e2e/``) stamps into its saved JSON.  It says which
machine, interpreter, march and commit produced a document, so a reader
can tell whether two documents are comparable.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

__all__ = ["collect_environment"]


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
        # Whether this process writes bytecode, and where: a cold start
        # that compiles the package from source measures something else
        # than one that loads cached .pyc files.
        "dont_write_bytecode": sys.dont_write_bytecode,
        "pycache_prefix": sys.pycache_prefix,
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
