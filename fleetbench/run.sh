#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout's sources and runs it.
# Everything the build and the run leave behind goes under .bench_build
# at the root of the checkout: the Go build cache, the binary, result
# files, checkpoints and shard sockets.
#
#   bash fleetbench/run.sh --workload steady-fleet --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOFLAGS=
# The build reads the program's packages through go.mod's replace of
# the parent directory; without them it fails here, before any run.
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .) >&2
exec "$out/fleetbench" -out .bench_build/fleetbench-out "$@"
