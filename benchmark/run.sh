#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build cache, binary, temp files and the pool's socket all stay under
# .bench_build/ in the checkout. TMPDIR is relative on purpose: the pool's
# unix socket path must fit in 108 bytes whatever the checkout is called.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(cd "$here" && GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local \
	go build -buildvcs=false -o "$build/benchmark" .)
cd "$root"
TMPDIR=.bench_build/tmp exec "$build/benchmark" "$@"
