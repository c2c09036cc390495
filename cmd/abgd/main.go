// Command abgd runs the ABG two-level scheduler as a long-lived service: an
// incremental simulation engine driven on a quantum clock, fed through an
// HTTP/JSON job-submission API.
//
//	abgd -addr :7133 -P 128 -L 1000 -clock wall -tick 100ms
//	abgd -addr :7133 -clock virtual            # fast-forward (load tests, CI)
//
// Submit jobs and watch the scheduler live:
//
//	curl -d '{"kind":"batch","count":8,"seed":42}' localhost:7133/api/v1/jobs
//	curl localhost:7133/api/v1/jobs/0          # request/allotment/history
//	curl localhost:7133/api/v1/state           # scheduler-wide snapshot
//	curl -N localhost:7133/api/v1/events       # SSE instrumentation stream
//	curl localhost:7133/metrics                # Prometheus text exposition
//	curl localhost:7133/api/v1/jobs/0/timeline # per-quantum controller loop
//	curl localhost:7133/healthz                # ok | degraded | failing
//	curl -X POST 'localhost:7133/api/v1/drain?wait=1'
//
// SIGINT/SIGTERM drain gracefully: admission closes (503), accepted jobs run
// to completion at fast-forward speed, then the listener shuts down. A
// second signal kills the process. Fault injection (-fault) arms the same
// deterministic perturbation layer as the batch tools, with the runtime
// invariant checker audited at exit.
//
// With -journal DIR the daemon keeps a write-ahead journal plus periodic
// engine snapshots there; after a crash (SIGKILL, power loss) the next boot
// with the same directory truncates any torn tail, restores the last
// snapshot, and deterministically replays the rest — same job ids, same
// results, same SSE event ids. See /api/v1/recovery and DESIGN.md.
//
// With -follow URL the daemon boots as a hot standby instead: it tails the
// leader's journal over /api/v1/journal, applies every record to its own
// engine, and serves reads (/state, job status, timelines, /metrics, SSE)
// that are byte-identical to the leader's at the same applied offset.
// Writes are redirected to the leader with a 307. Followers chain — a
// follower re-serves /api/v1/journal and the event stream, so relay tiers
// fan out reads without touching the leader. Without -group a follower is
// promoted by hand with POST /api/v1/promote; it resumes the run on exactly
// the journal prefix it applied. Re-point another follower at the promoted
// one by restarting it with -follow NEW on its own -journal directory: boot
// recovery replays that journal and the stream resumes at its end.
//
//	abgd -addr :7134 -journal /var/lib/abgd-b -follow http://leader:7133
//
// With -group the failover is self-healing instead of operator-driven: every
// member runs an election supervisor that probes the others, and when the
// leader dies or hangs a quorum of survivors promotes the most-caught-up
// follower under a new fencing epoch — no manual /api/v1/promote, no split
// brain (a revived old leader is fenced and exits). A group has at least
// three members, since two cannot out-vote each other; run a pair without
// -group. Each member needs -advertise (the URL its peers reach it at) and
// -journal; start the first member plain and the rest with -follow pointing
// anywhere in the group (the supervisor retargets them at the real leader).
// Group-aware clients (abgload -group) follow the leadership wherever it
// moves.
//
//	abgd -addr :7134 -journal /var/lib/abgd-b -advertise http://b:7134 \
//	     -group http://a:7133,http://b:7134,http://c:7135 -follow http://a:7133
//
// With -cluster N the daemon runs N independent engine shards behind one
// front door instead of a single engine: submissions are routed to shards
// (consistent hashing, least-loaded tiebreak), and a cluster-level allocator
// re-partitions the machine's P processors across the shards at every
// quantum boundary by feeding the shards' aggregate desires through the same
// DEQ policy jobs are allotted with — the paper's two-level feedback applied
// hierarchically. The API is unchanged (global job ids, aggregated /state,
// merged SSE stream, shard-labelled /metrics); /api/v1/shards exposes the
// per-shard routing and allocation state. -journal gives each shard its own
// journal under shard-<k>/ subdirectories, so recovery stays exact per
// shard. -cluster is incompatible with -follow.
//
//	abgd -addr :7133 -cluster 4 -P 128 -journal /var/lib/abgd
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"abg/internal/cli"
	"abg/internal/cluster"
	"abg/internal/obs"
	"abg/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":7133", "HTTP listen address")
		p         = flag.Int("P", 128, "machine size (processors)")
		l         = flag.Int("L", 1000, "quantum length (steps)")
		schedName = flag.String("scheduler", "abg", "scheduler: abg | agreedy")
		r         = flag.Float64("r", 0.2, "ABG convergence rate in [0,1)")
		rho       = flag.Float64("rho", 2, "A-Greedy multiplicative factor (>1)")
		delta     = flag.Float64("delta", 0.8, "A-Greedy utilization threshold in (0,1)")
		clock     = flag.String("clock", "wall", "quantum clock: wall (one boundary per tick) | virtual (fast-forward)")
		tick      = flag.Duration("tick", 100*time.Millisecond, "wall-clock duration of one quantum (wall mode)")
		queue     = flag.Int("queue", 4096, "admission queue bound (excess submissions get 429)")
		seed      = flag.Uint64("seed", 2008, "default workload seed for submissions without one")
		faultSpec = flag.String("fault", "", `fault-injection spec, e.g. "drop=0.3,cap=churn:0.5:16,seed=7" (see internal/fault)`)
		journal   = flag.String("journal", "", "directory for the write-ahead journal; empty disables persistence")
		snapEvery = flag.Int("snapshot-every", 64, "quanta between engine snapshots in the journal")
		fsync     = flag.String("fsync", "always", "journal durability: always (fsync per record) | snapshot | never")
		logSpec   = flag.String("log", "info", `log levels: "info" or "info,server=debug,events=debug"`)
		debugAddr = flag.String("debug-addr", "", "serve expvar + pprof on this address (e.g. :6060)")
		ring      = flag.Int("timeline-ring", 0, "per-job quantum-timeline ring depth behind /api/v1/jobs/{id}/timeline, job history and traces (0 = default 256, negative disables)")
		lagMax    = flag.Int("healthz-lag-max", 0, "journal-lag ceiling before /healthz degrades (0 = default 1024; none under -fsync never, where nothing resets the lag)")
		ageMax    = flag.Int("healthz-snapshot-age-max", 0, "snapshot-age ceiling in quanta before /healthz degrades (0 = 8× -snapshot-every)")
		follow    = flag.String("follow", "", "run as a hot standby tailing this leader URL (requires -journal); serves reads, redirects writes")
		group     = flag.String("group", "", "comma-separated URLs of the 3 or more members of a self-healing replication group (requires -journal and -advertise); quorum elections with epoch fencing replace manual promotion, which a groupless pair keeps")
		advertise = flag.String("advertise", "", "base URL peers and clients reach this daemon at (required with -group)")
		probeEv   = flag.Duration("probe-every", 0, "failover supervisor probe interval (0 = 500ms default)")
		failAfter = flag.Duration("fail-after", 0, "leader-silence window before the group elects a replacement (0 = 2s default)")
		shards    = flag.Int("cluster", 0, "run N engine shards behind one front door (0 = single engine); incompatible with -follow")
		version   = cli.VersionFlag()
	)
	flag.Parse()
	cli.ExitIfVersion("abgd", *version)

	if err := obs.SetupDefaultLogger(*logSpec); err != nil {
		fatal(err)
	}

	if *debugAddr != "" {
		dbg, err := obs.StartDebugServer(*debugAddr, nil)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "[debug server on http://%s]\n", dbg.Addr())
	}

	if *shards > 0 {
		if *follow != "" {
			fatal(fmt.Errorf("-cluster and -follow are mutually exclusive: a cluster's shards replicate per shard, not as one journal"))
		}
		if *group != "" {
			fatal(fmt.Errorf("-cluster and -group are mutually exclusive: group elections run per daemon, not per shard"))
		}
		cl, err := cluster.New(cluster.Config{
			Addr: *addr, Shards: *shards,
			Metrics: obs.Default,
			Shard: server.Config{
				P: *p, L: *l,
				Scheduler: *schedName, R: *r, Rho: *rho, Delta: *delta,
				Clock: server.ClockMode(*clock), Tick: *tick,
				QueueLimit: *queue, FaultSpec: *faultSpec, Seed: *seed,
				JournalDir: *journal, SnapshotEvery: *snapEvery, Fsync: *fsync,
				TimelineRing: *ring, JournalLagMax: *lagMax, SnapshotAgeMax: *ageMax,
			},
		})
		if err != nil {
			fatal(err)
		}
		ctx, stop := cli.SignalContext()
		defer stop()
		if err := cl.Start(ctx); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "abgd listening on http://%s\n", cl.Addr())
		if err := cl.Wait(); err != nil {
			fatal(err)
		}
		cli.Interrupted(ctx, os.Stderr, "abgd")
		return
	}

	srv, err := server.New(server.Config{
		Addr: *addr, P: *p, L: *l,
		Scheduler: *schedName, R: *r, Rho: *rho, Delta: *delta,
		Clock: server.ClockMode(*clock), Tick: *tick,
		QueueLimit: *queue, FaultSpec: *faultSpec, Seed: *seed,
		JournalDir: *journal, SnapshotEvery: *snapEvery, Fsync: *fsync,
		Metrics: obs.Default, TimelineRing: *ring,
		JournalLagMax: *lagMax, SnapshotAgeMax: *ageMax,
		FollowURL: *follow, Group: splitGroup(*group), Advertise: *advertise,
		ProbeEvery: *probeEv, FailAfter: *failAfter,
	})
	if err != nil {
		fatal(err)
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	if err := srv.Start(ctx); err != nil {
		fatal(err)
	}
	// The tests (and scripts) parse this line to find a :0-assigned port.
	fmt.Fprintf(os.Stderr, "abgd listening on http://%s\n", srv.Addr())

	if err := srv.Wait(); err != nil {
		fatal(err)
	}
	cli.Interrupted(ctx, os.Stderr, "abgd")
}

// splitGroup parses the -group flag: comma-separated URLs, blanks dropped.
func splitGroup(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "abgd: %v\n", err)
	os.Exit(1)
}
