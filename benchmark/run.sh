#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Build outputs and the Go
# caches stay inside the checkout, under .bench_build/ at its root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -buildvcs=false -o "$build/capnn-bench" .)
exec "$build/capnn-bench" "$@"
