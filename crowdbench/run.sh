#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash crowdbench/run.sh --workload svc-max --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, spans) stays under
# .bench_build in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

# The benchmark is its own module; it builds against the repository
# through the replace directive in crowdbench/go.mod.
(cd crowdbench && go build -o "$build/crowdbench" .)
exec "$build/crowdbench" "$@"
