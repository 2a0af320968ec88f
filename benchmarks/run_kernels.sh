#!/usr/bin/env bash
# Kernel micro-benchmarks into a provenance-stamped pytest-benchmark JSON.
#
# Usage:
#   benchmarks/run_kernels.sh [output.json]
#
# Runs benchmarks/bench_kernels.py (march, sort, composite, partition,
# the fused reduce, and the empty-space raycast bench: accel off/table
# × volume sparsity on one brick, and on the end-to-end sparse scene's
# 16 bricks; table — the corner-max probe plus the occupied-box trim —
# must beat off wherever there is empty space) into a pytest-benchmark
# JSON (default: BENCH_kernels.json at the repo root).  These rows
# locate a kernel's cost; whether a change is faster end to end is
# decided by benchmarks/e2e/ (see BENCHMARK.json), which runs the parent
# and the change on the same machine.
# Compare a fresh run against the committed rows with e.g.:
#   python - <<'PY'
#   import json
#   base = {b["name"]: b["stats"]["mean"] for b in json.load(open("BENCH_kernels.json"))["benchmarks"]}
#   new = {b["name"]: b["stats"]["mean"] for b in json.load(open("/tmp/new.json"))["benchmarks"]}
#   for k in sorted(base):
#       if k in new:
#           print(f"{k}: {base[k]*1e3:8.2f} ms -> {new[k]*1e3:8.2f} ms  ({base[k]/new[k]:.2f}x)")
#   PY
# set -e makes a bench crash abort the run; the ERR trap makes the
# nonzero exit loud so CI (and humans) never mistake a partial run for
# a completed one.
set -euo pipefail
trap 'echo "run_kernels.sh: FAILED at line $LINENO (exit $?)" >&2' ERR
cd "$(dirname "$0")/.."
OUT="${1:-BENCH_kernels.json}"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
    benchmarks/bench_kernels.py --benchmark-only \
    --benchmark-json="$OUT" -q
echo "run_kernels.sh: wrote $OUT"
