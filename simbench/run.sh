#!/usr/bin/env bash
# Builds the simbench runner from the checkout's sources and runs one
# benchmark pass. Run it from the root of the checkout:
#
#   bash simbench/run.sh --workload cold_trace_campaign --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the runner binary and the scratch data
# directories of the in-process service.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/simbench" && go build -o "$build/simbench" .)
exec "$build/simbench" --workdir "$build/run" "$@"
