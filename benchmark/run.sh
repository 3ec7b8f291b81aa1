#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# This is BENCHMARK.json's command. Everything the build and the run
# write — Go's build cache and temp files, the binary, the collector's
# snapshot directories — stays under .bench_build/ in the checkout, which
# .gitignore names. `go run ./benchmark ...` is the same program with
# Go's usual cache and temp locations.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
