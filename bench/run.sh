#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload quick-suite --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare BASE NEW
#
# The build cache, the binary and the results all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -buildvcs=false -o "$build/bench" .)
exec "$build/bench" "$@"
