#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it. Run from the checkout's root:
#
#   bash perfbench/run.sh --workload record --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run data stay in .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --dir "$out" "$@"
