#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload durable --seed 7 --seconds 10 --trace 0
#
# Every argument goes to the benchmark binary (see bench/README.md). The Go
# build cache, the binary and the benchmark's temporary journals all live
# under .bench_build/ in the repository root, so a run reads and writes
# nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/work"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
    GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
    GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go -C bench build -o "$build/bench" .
exec "$build/bench" --workdir "$build/work" "$@"
