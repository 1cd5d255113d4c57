#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it; all arguments are
# passed through (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload rotor-32 --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, profiles, span dumps,
# the toolchain's telemetry counters) stays in .bench_build/ under the
# current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export PPROF_TMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
