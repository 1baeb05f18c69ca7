#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it. Run from the root
# of the repository:
#
#   bash fleetbench/run.sh --workload point_mix --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root="$PWD"
out="$root/.bench_build/fleetbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/fleetbench" && go build -o "$out/fleetbench" .) >&2
exec "$out/fleetbench" "$@"
