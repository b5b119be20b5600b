#!/usr/bin/env bash
# The benchmark's single command (see BENCHMARK.json): builds natbench from
# source into .bench_build/ at the root of the checkout, then runs it with
# the arguments given. Everything Go writes — build cache, temporary files,
# the scratch directories of a run — stays under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPATH="$build/gopath" GOTELEMETRY=off
(cd benchmarks && go build -o "$build/natbench" ./natbench)
exec "$build/natbench" "$@"
