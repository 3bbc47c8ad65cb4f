#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
#
# Everything the build writes (the Go build cache included) stays under
# .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
