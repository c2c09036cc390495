#!/usr/bin/env bash
# Repository gate: vet, build, full tests, race-checked tests for the
# concurrency-sensitive packages, and the observability overhead guard
# (asserts an idle event bus adds <2% to RunSingle and to Engine.Step).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== gofmt (every tracked Go file)"
unformatted="$(gofmt -l $(git ls-files '*.go'))"
if [ -n "$unformatted" ]; then
    echo "gofmt would reformat:" >&2
    printf '%s\n' "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== benchmark module (bench/: go vet + go test)"
# bench/ is a module of its own (replace abg => ../), which the root
# ./... patterns skip: an API change that breaks it must fail here, not
# first in a benchmark run.
(cd bench && go vet ./... && go test ./...)

echo "== go test -race (obs, sim, fault, feedback, alloc, server, persist, cli, parallel, replica, cluster, failover)"
go test -race ./internal/obs/... ./internal/sim/... ./internal/fault/... \
    ./internal/feedback/... ./internal/alloc/... ./internal/server/... \
    ./internal/persist/... ./internal/cli/... ./internal/parallel/... \
    ./internal/replica/... ./internal/cluster/... ./internal/failover/...

echo "== observation reads under -race (traces, timelines, job history while the quantum clock steps; x10)"
# Traces and job histories are built on read from engine state under the
# daemon's lock; this test reads them from several goroutines while the
# daemon's quantum clock steps the engine.
go test -race -run '^TestObservationReadsWhileStepping$' -count=10 ./internal/server/

echo "== concurrent manual promotes serialize (x200)"
# Two followers promoted at once: the longer journal must win every time.
# A claim that superseded the longer follower's own claim once made both
# lose, in a few runs per hundred.
go test -run '^TestConcurrentPromoteSerializes$' -count=200 ./internal/server/

echo "== drains keep pace with event-stream readers on one CPU (x20)"
# On one CPU the SSE writers run only when the drain goroutine lets them.
# The drain sequence waits (bounded) for subscribers that keep reading, so
# a plain daemon and a 2-shard front door deliver every frame of a drain
# four times a subscriber's queue, and a reader that stopped reading holds
# the drain for less than the bound.
GOMAXPROCS=1 go test -run '^(TestDrainKeepsPaceWithReader|TestDrainDoesNotWaitForStalledReader)$' \
    -count=20 ./internal/server/ ./internal/cluster/

echo "== bench schema smoke (abgbench -quick, validates BENCH format)"
# The /metrics-scrape-vs-SSE-vs-stepping race test itself runs in the -race
# block above (TestMetricsConcurrentWithStreamAndStepping, internal/server).
./scripts/bench.sh -quick
if ls BENCH_*.json >/dev/null 2>&1; then
    for f in BENCH_*.json; do
        go run ./cmd/abgbench -validate "$f"
    done
fi

echo "== journal decoder fuzz (5s)"
go test -run '^$' -fuzz FuzzScanBytes -fuzztime 5s ./internal/persist/

echo "== submit record codec fuzz (5s, both formats)"
go test -run '^$' -fuzz FuzzSubmitRecord -fuzztime 5s ./internal/server/

echo "== snapshot chain fold fuzz (5s)"
go test -run '^$' -fuzz FuzzFoldSnapshots -fuzztime 5s ./internal/sim/

echo "== closed-form breadth-first quantum fuzz (5s, vs the step loop)"
go test -run '^$' -fuzz FuzzQuantumBreadthFirst -fuzztime 5s ./internal/sched/

echo "== run cursor decoder fuzz (5s, both layouts)"
go test -run '^$' -fuzz FuzzRunCursor -fuzztime 5s ./internal/job/

echo "== SSE event encoder fuzz (5s, byte-identical to encoding/json)"
go test -run '^$' -fuzz FuzzEventJSON -fuzztime 5s ./internal/server/

bindir="$(mktemp -d)"
trap 'rm -rf "$bindir"' EXIT

echo "== output goldens (abgexp at small scale; abgvalidate, abgsim, examples)"
# The command-line path must print the bytes pinned in
# internal/experiments/testdata; TestCatalogueGoldens pins the library
# path at every scale. testdata/commands/commands.txt lists the other
# commands' lines, each pinned in testdata/commands/<name>.golden. The
# goldens are amd64 bytes (arm64 may fuse multiply-adds), so other
# architectures skip this step.
if [ "$(go env GOARCH)" = amd64 ]; then
    go build -o "$bindir/" ./cmd/abgexp ./cmd/abgvalidate ./cmd/abgsim ./examples/...
    for golden in internal/experiments/testdata/*.small.golden; do
        name="$(basename "$golden" .small.golden)"
        if ! diff -u "$golden" <("$bindir/abgexp" -exp "$name" -scale small 2>/dev/null) >&2; then
            echo "abgexp -exp $name -scale small differs from $golden" >&2
            exit 1
        fi
    done
    while read -r name bin args; do
        case "$name" in ''|'#'*) continue ;; esac
        golden="testdata/commands/$name.golden"
        # $args is split on purpose: the manifest's arguments hold no spaces.
        if ! diff -u "$golden" <("$bindir/$bin" $args </dev/null 2>/dev/null) >&2; then
            echo "$bin $args differs from $golden" >&2
            exit 1
        fi
    done < testdata/commands/commands.txt
else
    echo "skipped on $(go env GOARCH)"
fi

echo "== event-bus overhead guard (<2% on idle bus)"
ABG_BENCH_GUARD=1 go test -run TestEventBusOverheadGuard -v ./internal/sim/ | grep -v '^=== '

echo "== service e2e smoke (live abgd on a random port, virtual time)"
# Boots the daemon binary, submits a batch over HTTP, drains on SIGTERM, and
# asserts the live run's makespan and responses match the batch simulator.
go test -run 'TestE2E' -count=1 ./internal/server/

echo "== load-generator smoke (>=1000 closed-loop submissions, ABG vs A-Greedy)"
go run ./cmd/abgload -selftest -jobs 1000 -clients 32 -kind batch -shrink 8 -P 64 -L 200

echo "== cluster load smoke (2-shard front end, routed + drained clean)"
# Drives the sharded front door closed-loop; abgload exits nonzero unless
# every job completes and the drain is clean. The JSON summary must carry
# the cluster-only fields (per-shard admits, routing imbalance).
# The second run, under GOMAXPROCS=1, steps the shards serially: each round
# steps them one after another on the goroutine that runs the rounds.
for procs in "" 1; do
    clusterjson="$(GOMAXPROCS=$procs go run ./cmd/abgload -cluster 2 -jobs 200 -clients 16 -kind batch -shrink 8 -P 64 -L 200 -json)"
    grep -q '"shardAdmits"' <<<"$clusterjson" || {
        echo "cluster load summary (GOMAXPROCS=${procs:-default}) lacks shardAdmits:" >&2
        printf '%s\n' "$clusterjson" >&2
        exit 1
    }
done

echo "== kill-recover smoke (SIGKILL abgd mid-run, recover from journal, compare to reference)"
# Builds the real binaries, crashes the daemon at random quanta, and asserts
# the recovered run's per-job results DeepEqual an uninterrupted replay of
# the journal — fault-free and under an active fault plan.
go build -o "$bindir/abgd" ./cmd/abgd
go build -o "$bindir/abgload" ./cmd/abgload
"$bindir/abgload" -crash -abgd "$bindir/abgd" -jobs 30 -crashes 3 -timeout 3m
"$bindir/abgload" -crash -abgd "$bindir/abgd" -jobs 30 -crashes 3 -timeout 3m \
    -fault "drop=0.15,delay=2:0.1,dup=0.1,noise=0.3,restart=0.1,restartat=2,maxrestarts=2,cap=churn:0.5:4,seed=11"

echo "== failover chaos soak (3 leader SIGKILLs, self-healing elections, compare to reference)"
# Three-member group, every member running the election supervisor. The soak
# SIGKILLs whichever daemon leads, three times, with zero manual promotes:
# the survivors must elect the most-caught-up follower under a new fencing
# epoch while one group-aware client rides every outage (reads rotate,
# writes re-discover the leader). Final results must DeepEqual an
# uninterrupted replay of the last leader's journal, and every member's
# journal must be a byte copy of it — clean and faulted.
"$bindir/abgload" -failover -abgd "$bindir/abgd" -jobs 24 -kills 3 -timeout 3m
"$bindir/abgload" -failover -abgd "$bindir/abgd" -jobs 24 -kills 3 -timeout 3m \
    -fault "drop=0.3,cap=churn:0.5:4,seed=5"

echo "== all checks passed"
