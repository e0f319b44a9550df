#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root. Every build
# output, Go cache and temporary file stays under .bench_build/ in the
# working directory, so a checkout can be benchmarked without writing
# anywhere else.
#
#   bash benchmark/run.sh --workload simulate-hot --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --seed 1 --out result.json      # all five workloads
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"

go -C benchmark build -o "$build/enabench" .
exec "$build/enabench" "$@"
