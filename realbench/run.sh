#!/usr/bin/env bash
# Builds the real-cost benchmark from this checkout's sources and runs it.
# Run from the repository root; the arguments go to the benchmark:
#
#   bash realbench/run.sh --workload ycsb-a --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (Go build cache, temporary files, binary,
# deployment data, span files) stays under .bench_build in the checkout.
set -euo pipefail

mkdir -p .bench_build/tmp
build=$(cd .bench_build && pwd)
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C realbench build -o "$build/realbench" .
exec "$build/realbench" -dir "$build/realbench-data" "$@"
