#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload rack --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout. The build needs the repository's own go.mod one level up, so in
# a directory holding only the benchmark it fails and nothing runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
