#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it. Everything the build and the run write (Go build
# cache, temp files, WALs, span files) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
if [ -z "${BENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
	BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)"
fi
export BENCH_COMMIT="${BENCH_COMMIT:-unknown}"
(cd "$here" && go build -o "$build/zoomer-benchmark" .)
exec "$build/zoomer-benchmark" -tmp "$build/tmp" "$@"
