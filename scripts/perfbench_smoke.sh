#!/usr/bin/env sh
# Benchmark smoke: runs every workload of the repository benchmark
# (perfbench/run.py, declared in BENCHMARK.json) once for one second at
# seed 1 without span tracing, and fails unless each run's result line —
# the last line of its standard output — reports "correct": true and
# "failed": 0.
#
# Run from the repo root (make verify does). perfbench/run.py builds the
# benchmark itself (release, offline, into $CARGO_TARGET_DIR, default
# .bench_build) and skips the build when no source changed.
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d "${TMPDIR:-/tmp}/hetgmp-perfbench-smoke.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

for workload in ctr-ssp ctr-tiered kg-transe; do
    echo "perfbench_smoke: $workload"
    if ! python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        > "$TMP/$workload.out"; then
        echo "perfbench_smoke: $workload exited non-zero" >&2
        cat "$TMP/$workload.out" >&2
        exit 1
    fi
    if ! tail -n 1 "$TMP/$workload.out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
'; then
        echo "perfbench_smoke: $workload result is not correct with 0 failed:" >&2
        tail -n 1 "$TMP/$workload.out" >&2
        exit 1
    fi
done

echo "perfbench_smoke: OK (ctr-ssp, ctr-tiered, kg-transe)"
