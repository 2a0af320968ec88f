#!/usr/bin/env bash
# Kernel micro-benchmark regression check + parallel-executor scaling sweep.
#
# Usage:
#   benchmarks/run_kernels.sh [output.json] [parallel_output.json]
#
# Runs the functional-kernel micro-benchmarks into a pytest-benchmark
# JSON (default: BENCH_kernels.json at the repo root) — including the
# empty-space raycast bench (accel off/table × volume sparsity on one
# brick, and on the end-to-end sparse scene's 16 bricks; table — the
# corner-max probe plus the occupied-box trim — must beat off wherever
# there is empty space) — then the shared-memory pool
# executor's scaling sweep (the in-process baseline, then 1/2/4/8
# workers × pipeline depth 1/2 over a multi-brick orbit) into
# BENCH_parallel.json.
# Compare kernels against the committed baseline with e.g.:
#   python - <<'EOF'
#   import json
#   base = {b["name"]: b["stats"]["mean"] for b in json.load(open("BENCH_kernels.json"))["benchmarks"]}
#   new = {b["name"]: b["stats"]["mean"] for b in json.load(open("/tmp/new.json"))["benchmarks"]}
#   for k in sorted(base):
#       if k in new:
#           print(f"{k}: {base[k]*1e3:8.2f} ms -> {new[k]*1e3:8.2f} ms  ({base[k]/new[k]:.2f}x)")
#   EOF
# set -e makes any bench-script crash abort the run; the ERR trap makes
# the nonzero exit loud so CI (and humans) never mistake a partial run
# for a completed one.
set -euo pipefail
trap 'echo "run_kernels.sh: FAILED at line $LINENO (exit $?)" >&2' ERR
cd "$(dirname "$0")/.."
OUT="${1:-BENCH_kernels.json}"
PAR_OUT="${2:-BENCH_parallel.json}"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
    benchmarks/bench_kernels.py --benchmark-only \
    --benchmark-json="$OUT" -q
echo "wrote $OUT"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python \
    benchmarks/bench_parallel.py --out "$PAR_OUT" --workers 1,2,4,8 \
    --depths 1,2
echo "run_kernels.sh: OK"
