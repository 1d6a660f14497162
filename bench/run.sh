#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs one pass, keeping everything the Go toolchain writes (build
# cache, module path, telemetry) under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload storm_steady --seed 3 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
unset XDG_CACHE_HOME XDG_CONFIG_HOME GOFLAGS
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/ampsinf-bench" .
exec "$build/ampsinf-bench" "$@"
