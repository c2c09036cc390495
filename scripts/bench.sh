#!/usr/bin/env bash
# Perf-trajectory runner. Full mode drives Engine.Step at 1k/10k/100k jobs
# and writes the next BENCH_<n>.json in the repo root (commit it with the
# change); -quick runs a small throwaway measurement to a temp file and only
# validates the schema, which is what scripts/check.sh calls.
#
#   scripts/bench.sh             # full run → BENCH_<n>.json
#   scripts/bench.sh -quick      # CI schema smoke, writes nothing durable
#   scripts/bench.sh -out X.json # full run to an explicit path
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
args=()
while [ $# -gt 0 ]; do
    case "$1" in
    -quick) quick=1 ;;
    *) args+=("$1") ;;
    esac
    shift
done

if [ "$quick" = 1 ]; then
    tmp="$(mktemp /tmp/abgbench.XXXXXX.json)"
    trap 'rm -f "$tmp"' EXIT
    go run ./cmd/abgbench -quick -out "$tmp" "${args[@]+"${args[@]}"}"
    go run ./cmd/abgbench -validate "$tmp"
else
    out="$(go run ./cmd/abgbench "${args[@]+"${args[@]}"}" | awk '/^wrote / {print $2}')"
    [ -n "$out" ] || { echo "bench.sh: abgbench reported no output file" >&2; exit 1; }
    go run ./cmd/abgbench -validate "$out"
fi
