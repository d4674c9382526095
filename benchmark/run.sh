#!/usr/bin/env bash
# Builds the benchmark from the checkout this file is in and runs it with the
# given arguments. Everything the build and the run write — the Go build
# cache, the binary, region files — goes under .bench_build in the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
