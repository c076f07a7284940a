#!/bin/sh
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# into .bench_build/ — build cache, temporary files and toolchain
# settings included, so nothing is written outside the checkout — and
# runs it with the caller's arguments. Run from the root of the repo.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
