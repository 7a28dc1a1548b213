#!/usr/bin/env bash
# Builds the rimbench command from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash rimbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, the ingest data
# directories and the span dumps of traced runs.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
go -C "$here" build -o "$out/rimbench" .
exec "$out/rimbench" --out "$out" "$@"
