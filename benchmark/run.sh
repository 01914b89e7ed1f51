#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the Go toolchain and the benchmark
# write (build cache, temporary files, data directories) goes under
# .bench_build in the current directory, which must be the repository
# root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$build/config"
go build -C benchmark -o "$build/rfh-benchmark" .
exec "$build/rfh-benchmark" "$@"
