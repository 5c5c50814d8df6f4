#!/usr/bin/env bash
# Builds the flowzip benchmark from source and runs it. Run from the root of
# a flowzip checkout; every argument passes through to the benchmark, e.g.
#
#   bash flowbench/run.sh --workload web --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, scratch inputs and results files all live under
# .bench_build/ in the checkout, so the build and the runs write nothing outside
# it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOPATH="$build/gopath"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOENV=off
(cd "$root/flowbench" && go build -o "$build/flowbench" .) >&2
exec "$build/flowbench" --dir "$build" "$@"
