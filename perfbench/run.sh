#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload year6_fed --seed 42 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, checkpoint temp dirs and Chrome
# traces stay under .bench_build/ in the repository root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -C "$root/perfbench" -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
