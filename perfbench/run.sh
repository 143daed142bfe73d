#!/usr/bin/env bash
# Builds freehgc_bench and freehgc_server from this checkout's sources
# (into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then
# runs the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload warm_open --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last line on stdout is the result.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/perfbench"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$src" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target freehgc_bench -j "$(nproc)" >&2
exec "$build/freehgc_bench" --work-dir "$build/work" "$@"
