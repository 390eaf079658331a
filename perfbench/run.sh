#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it.
#   bash perfbench/run.sh --workload router --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-$root/.bench_build}/perfbench"

if [[ ! -f "$build/build.ninja" ]]; then
    cmake -S "$here" -B "$build" -G Ninja \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
jobs="$(nproc)"
(( jobs > 4 )) && jobs=4
cmake --build "$build" -j "$jobs" >&2

sha="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$build/perfbench" --git-sha "$sha" "$@"
