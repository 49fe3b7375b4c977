#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one workload.
# Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload detailed --seed 1 --seconds 15 --trace 0
#
# Every build product, Go cache and trace file goes under .bench_build/, so
# nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
