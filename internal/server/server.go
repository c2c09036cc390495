// Package server is the service layer of the repository: a long-running
// daemon (cmd/abgd) that exposes the two-level ABG scheduling framework as
// a live system instead of a batch simulation. An incremental sim.Engine is
// driven on a quantum clock — wall-time ticks or fast-forward virtual time —
// while an HTTP/JSON API accepts workload-generator job submissions, serves
// per-job scheduler state (request d(q), allotment a(q), measured A(q),
// deprivation history), streams the quantum-boundary instrumentation events
// over SSE, and snapshots the whole scheduler.
//
// Admission control is a bounded queue: submissions beyond the bound are
// rejected with 429 so overload surfaces as backpressure, never as unbounded
// memory. All jobs queued at a boundary are admitted together at that
// boundary (arrivals mid-quantum become schedulable at the next boundary,
// exactly as in the paper's model). Draining — via SIGTERM or POST
// /api/v1/drain — stops admission, runs every accepted job to completion at
// fast-forward speed, then shuts the listener down.
//
// The existing observability and robustness layers plug straight in: the
// run's obs.Bus feeds the SSE hub, the metrics, and — when a fault spec is
// configured — the invariant checker, while the fault plan's capacity
// model, lossy control channel, and restart schedules perturb the live
// engine the same way they perturb batch runs.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"abg/internal/alloc"
	"abg/internal/cli"
	"abg/internal/core"
	"abg/internal/failover"
	"abg/internal/fault"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/persist"
	"abg/internal/replica"
	"abg/internal/sim"
)

// ClockMode selects how quantum boundaries are paced.
type ClockMode string

const (
	// ClockWall advances one quantum boundary per Tick of wall time — the
	// live-service mode, where simulation time tracks real time.
	ClockWall ClockMode = "wall"
	// ClockVirtual advances boundaries as fast as the hardware allows
	// whenever unfinished jobs exist, and parks when idle — the mode for
	// load tests, CI smokes, and what-if replays.
	ClockVirtual ClockMode = "virtual"
)

// Config configures a daemon instance.
type Config struct {
	// Addr is the listen address (e.g. ":7133", "127.0.0.1:0").
	Addr string
	// P and L are the machine parameters (processors, quantum length).
	P, L int
	// Scheduler selects the two-level scheduler: "abg" or "agreedy".
	Scheduler string
	// R is ABG's convergence rate; Rho/Delta are A-Greedy's parameters.
	R, Rho, Delta float64
	// Clock and Tick pace the quantum clock (Tick is wall mode only).
	Clock ClockMode
	Tick  time.Duration
	// QueueLimit bounds the admission queue; a submission that would push
	// the queue past it is rejected with 429.
	QueueLimit int
	// FaultSpec optionally arms the fault-injection layer (fault.ParseSpec
	// grammar); the invariant checker is subscribed whenever it is set.
	FaultSpec string
	// Seed is the base seed for submissions that do not carry their own.
	Seed uint64
	// JournalDir enables crash safety: a write-ahead journal plus periodic
	// engine snapshots under this directory. On boot the daemon recovers to
	// the journaled state — same job ids, same results, same SSE sequence
	// numbers. Empty disables persistence.
	JournalDir string
	// SnapshotEvery is the snapshot cadence in executed quanta (default 64).
	// Smaller values shorten recovery replay; larger ones shrink the journal.
	SnapshotEvery int
	// Fsync selects the journal's fsync policy: "always" (default),
	// "snapshot", or "never". See persist.SyncPolicy for the durability
	// trade-off.
	Fsync string
	// EventRing bounds the SSE replay ring: how many recent events a
	// reconnecting subscriber can catch up on before it must resync
	// (default 4096).
	EventRing int
	// Bus receives the run's instrumentation events; one is created when
	// nil. The server always attaches its own subscribers (SSE, metrics).
	Bus *obs.Bus
	// Metrics receives the daemon's metric families — HTTP, admission, SSE,
	// journal, snapshot, and recovery, plus the engine's sim_* families fed
	// by an obs.MetricsSubscriber on Bus — and is rendered at GET /metrics
	// in the Prometheus text format. cmd/abgd passes obs.Default so
	// /debug/vars shows the same numbers; a private registry is created
	// when nil.
	Metrics *obs.Registry
	// JournalLagMax is the /healthz ceiling on the journal's durability debt
	// (records appended since the last fsync, persist.Journal.Lag). Above
	// it the daemon reports degraded. Default 1024. It applies under
	// -fsync=always and snapshot, where an fsync resets the lag (under
	// always it grows only while fsyncs fail); under never nothing resets
	// it before exit, so a ceiling would only count the records written.
	JournalLagMax int
	// SnapshotAgeMax is the /healthz ceiling on executed quanta since the
	// last snapshot. Above it the daemon reports degraded (recovery replay
	// is growing unboundedly). Default 8× SnapshotEvery; only meaningful
	// with JournalDir set.
	SnapshotAgeMax int
	// TimelineRing bounds the per-job quantum-timeline ring behind
	// GET /api/v1/jobs/{id}/timeline, job histories and traces
	// (sim.MultiConfig.TimelineRing). Default 256; negative disables the
	// timeline, and histories and traces then hold lifecycle entries only.
	TimelineRing int
	// Capacity overrides the engine's capacity model (the fault plan's model
	// is used when nil). The cluster layer (internal/cluster) injects a
	// *ShareTable here so a cluster-level allocator can re-partition the
	// machine across engine shards at every quantum boundary; the fault
	// plan's capacity churn, if any, must then be folded into the override
	// (ShareTable does this via its base model).
	Capacity alloc.Capacity
	// FollowURL boots the daemon as a replication follower tailing this
	// leader's journal (see replication.go). Requires JournalDir, and the
	// engine configuration (P, L, scheduler parameters, fault spec, seed)
	// must match the leader's — the shipped header record is cross-checked.
	// Followers serve reads and the SSE stream; writes answer 307 to the
	// leader.
	FollowURL string
	// Group enables automated failover (internal/failover): the advertised
	// URLs of every replication-group member, this daemon included. Each
	// member runs a supervisor that probes the group, fences stale leaders
	// by epoch, and elects the longest-prefix follower when the leader dies.
	// Requires JournalDir, Advertise and at least three members; without a
	// group, a follower is promoted by hand (POST /api/v1/promote).
	Group []string
	// Advertise is the base URL peers and clients reach this daemon at.
	// Required with Group (the bound address of ":7133" is not something a
	// peer can dial); defaults to the bound listen address otherwise.
	Advertise string
	// ProbeEvery and FailAfter tune the failover supervisor: probe-round
	// period and how long the leader must stay unreachable before an
	// election starts. Defaults failover.DefaultProbeEvery/DefaultFailAfter.
	ProbeEvery, FailAfter time.Duration
	// FailoverSeed makes election holdoff jitter deterministic in tests.
	FailoverSeed uint64
	// ReadWaitMax bounds the read-your-writes wait: how long a read carrying
	// X-Abg-Min-Offset may block for the journal to catch up before the
	// daemon answers 503 + Retry-After (default 2s).
	ReadWaitMax time.Duration
	// EventRingBytes caps the SSE replay ring's payload footprint in bytes,
	// on top of the EventRing entry cap (default 4 MiB). Whichever cap is
	// hit first evicts the oldest events.
	EventRingBytes int
}

// normalize fills defaults and validates the configuration.
func (c *Config) normalize() error {
	if c.Addr == "" {
		c.Addr = ":7133"
	}
	if c.P == 0 {
		c.P = 128
	}
	if c.L == 0 {
		c.L = 1000
	}
	if c.P < 1 || c.L < 1 {
		return fmt.Errorf("server: invalid machine P=%d L=%d", c.P, c.L)
	}
	if c.Scheduler == "" {
		c.Scheduler = "abg"
	}
	if c.Scheduler != "abg" && c.Scheduler != "agreedy" {
		return fmt.Errorf("server: unknown scheduler %q (want abg or agreedy)", c.Scheduler)
	}
	if c.R == 0 {
		c.R = 0.2
	}
	if c.Rho == 0 {
		c.Rho = 2
	}
	if c.Delta == 0 {
		c.Delta = 0.8
	}
	switch c.Clock {
	case "":
		c.Clock = ClockWall
	case ClockWall, ClockVirtual:
	default:
		return fmt.Errorf("server: unknown clock mode %q (want wall or virtual)", c.Clock)
	}
	if c.Tick <= 0 {
		c.Tick = 100 * time.Millisecond
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4096
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 64
	}
	if c.JournalLagMax <= 0 {
		c.JournalLagMax = 1024
	}
	switch {
	case c.TimelineRing == 0:
		c.TimelineRing = 256
	case c.TimelineRing < 0:
		c.TimelineRing = 0
	}
	if c.SnapshotAgeMax <= 0 {
		c.SnapshotAgeMax = 8 * c.SnapshotEvery
	}
	if _, err := persist.ParseSyncPolicy(c.Fsync); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if c.FollowURL != "" && c.JournalDir == "" {
		return fmt.Errorf("server: follower mode requires a journal (-follow needs -journal)")
	}
	if c.ReadWaitMax <= 0 {
		c.ReadWaitMax = 2 * time.Second
	}
	c.Advertise = failover.NormalizeURL(c.Advertise)
	if len(c.Group) > 0 {
		if c.JournalDir == "" {
			return fmt.Errorf("server: group mode requires a journal (-group needs -journal)")
		}
		if c.Advertise == "" {
			return fmt.Errorf("server: group mode requires -advertise (peers must know this member's URL)")
		}
		if len(c.Group) < 3 {
			// Two members can never form a death quorum without each other.
			return fmt.Errorf("server: a replication group needs at least 3 members, got %d "+
				"(run a pair without -group and promote the standby with POST /api/v1/promote)", len(c.Group))
		}
		self := false
		// Normalized into a copy: members of one group often share the
		// caller's slice, which a running member's supervisor reads.
		c.Group = append([]string(nil), c.Group...)
		for i, m := range c.Group {
			c.Group[i] = failover.NormalizeURL(m)
			if c.Group[i] == "" {
				return fmt.Errorf("server: empty group member URL")
			}
			if c.Group[i] == c.Advertise {
				self = true
			}
		}
		if !self {
			return fmt.Errorf("server: advertised URL %s is not a group member", c.Advertise)
		}
	}
	if c.Bus == nil {
		c.Bus = obs.NewBus()
	}
	return nil
}

// pendingJob is one admission-queue entry: a job that has been accepted but
// not yet handed to the engine (that happens at the next quantum boundary).
type pendingJob struct {
	id      int
	name    string
	profile *job.Profile
}

// Server is a running abgd instance.
type Server struct {
	cfg   Config
	sched core.Scheduler
	plan  fault.Plan
	// capacity is the engine's resolved capacity model: cfg.Capacity when
	// set (the cluster layer's ShareTable), the fault plan's otherwise.
	capacity alloc.Capacity

	bus     *obs.Bus
	hub     *EventHub
	checker *fault.Checker
	metrics *serverMetrics
	log     *slog.Logger

	mu            sync.Mutex
	eng           *sim.Engine
	queue         []pendingJob
	nextID        int
	keys          map[string][]int // idempotency key → promised ids
	traces        traceIndex       // trace id → traced submission
	fatal         error
	recovery      RecoveryDTO
	lastSnapQ     int    // QuantaElapsed at the last written snapshot
	lastSnapSeq   uint64 // SSE sequence captured by the last snapshot
	snapshotCount int
	// snapFrom is the lowest job id that was not done at the last snapshot
	// record: the from of the next delta snapshot (see maybeSnapshotLocked).
	snapFrom int

	journal *persist.Journal

	// Replication (see replication.go). role is RoleLeader or RoleFollower;
	// a follower's tailer streams the leader's journal into repl/engine.
	role       atomic.Int32
	promotions atomic.Int64
	tailer     *replica.Tailer
	repl       replState

	// Failover (see failover.go, internal/failover). epoch is the leadership
	// term served under; fenced flips once, permanently, when a successor's
	// higher epoch is observed; confirmed gates a grouped leader's writes
	// until its first clean probe round. promiseEpoch/promiseHolder (under
	// mu) record the one fencing promise outstanding; pendingEpoch (under
	// mu) carries a won epoch from PromoteTo to sealPromotion.
	epoch         atomic.Uint32
	fenced        atomic.Bool
	confirmed     atomic.Bool
	fencedBy      string
	promiseEpoch  uint32
	promiseHolder string
	pendingEpoch  uint32
	super         *failover.Supervisor

	draining atomic.Bool
	killed   atomic.Bool // test hook: crash the driver without draining
	wake     chan struct{}
	drained  chan struct{} // closed by FinishExternal
	verdict  error         // set by FinishExternal before drained closes
	stopped  chan struct{} // closed once the driver stops, killed or not
	started  time.Time

	ln   net.Listener
	hsrv *http.Server
}

// New builds a server from the configuration. Call Start to bind and run.
func New(cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	plan, err := fault.ParseSpec(cfg.FaultSpec, cfg.P)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var scheduler core.Scheduler
	if cfg.Scheduler == "abg" {
		scheduler = core.NewABG(cfg.R)
	} else {
		scheduler = core.NewAGreedy(cfg.Rho, cfg.Delta)
	}
	capacity := cfg.Capacity
	if capacity == nil {
		capacity = plan.Capacity
	}
	s := &Server{
		cfg:      cfg,
		sched:    scheduler,
		plan:     plan,
		capacity: capacity,
		bus:      cfg.Bus,
		hub:      NewEventHub(1, cfg.EventRing, cfg.EventRingBytes),
		log:      obs.Component("server"),
		keys:     make(map[string][]int),
		traces:   traceIndex{byID: make(map[string]traceRef)},
		wake:     make(chan struct{}, 1),
		drained:  make(chan struct{}),
		stopped:  make(chan struct{}),
		started:  time.Now(),
	}
	if s.eng, err = sim.NewEngine(s.engineConfig()); err != nil {
		return nil, err
	}
	s.metrics = newServerMetrics(cfg.Metrics)
	s.bus.Subscribe(s.hub)
	// Engine-level sim_* families land in the same registry.
	s.bus.Subscribe(obs.NewMetricsSubscriber(s.metrics.reg))
	if cfg.FaultSpec != "" {
		s.checker = fault.NewChecker(cfg.P, false)
		s.bus.Subscribe(s.checker)
	}
	if cfg.FollowURL != "" {
		// Role must be set before openJournal: a fresh follower journal is
		// NOT stamped with a header — its first record is the leader's.
		s.role.Store(int32(RoleFollower))
	}
	if cfg.JournalDir != "" {
		if err := s.openJournal(); err != nil {
			return nil, err
		}
		s.journal.SetMetrics(newJournalMetrics(s.metrics.reg))
	}
	if cfg.FollowURL != "" {
		t := replica.NewTailer(cfg.FollowURL, shippedApplier{s})
		// A clean EOF after the drain record has applied and the engine has
		// finished is the leader's end-of-drain: the journal is complete, so
		// the follower drains out too instead of re-dialing a gone leader.
		t.StopOnEOF = func() bool {
			if !s.draining.Load() {
				return false
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.eng.Done() && len(s.queue) == 0
		}
		s.tailer = t
	}
	// The served epoch resumes from the journal (the highest epoch any
	// record was framed under; 1 for a fresh journal) so a restarted daemon
	// answers under the term it actually holds. A grouped leader boots
	// unconfirmed: it may not ack a write until its supervisor completes a
	// probe round without discovering a successor — the gate that keeps a
	// rebooted stale leader from forking history before it learns it was
	// deposed. Followers redirect writes, so they are always "confirmed".
	s.epoch.Store(1)
	if s.journal != nil {
		s.epoch.Store(s.journal.Epoch())
	}
	if len(cfg.Group) == 0 || s.isFollower() {
		s.confirmed.Store(true)
	}
	s.metrics.recordRecovery(s.recovery)
	return s, nil
}

// engineMaxQuanta caps the daemon engine's boundaries: effectively
// unlimited, a service bound unlike the batch simulator's default.
// ReferenceResult replays under the same cap, so recovery matches its
// reference.
const engineMaxQuanta = math.MaxInt - 1

// engineConfig is the configuration of the daemon's engine, whether built
// fresh or restored from a snapshot.
func (s *Server) engineConfig() sim.MultiConfig {
	return sim.MultiConfig{
		P: s.cfg.P, L: s.cfg.L,
		Allocator: alloc.DynamicEquiPartition{},
		MaxQuanta: engineMaxQuanta,
		Obs:       s.bus,
		Capacity:  s.capacity,
		// Observational: the ring never perturbs scheduling or snapshots.
		TimelineRing: s.cfg.TimelineRing,
	}
}

// Start binds the listener and launches the quantum-clock driver and the
// HTTP server. Cancelling ctx initiates a graceful drain.
func (s *Server) Start(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	s.started = time.Now()
	s.hsrv = NewHTTPServer(s.mux())
	if len(s.cfg.Group) > 0 {
		s.super = &failover.Supervisor{
			Node:       s,
			Self:       s.advertise(),
			Group:      s.cfg.Group,
			ProbeEvery: s.cfg.ProbeEvery,
			FailAfter:  s.cfg.FailAfter,
			Seed:       s.cfg.FailoverSeed,
			HTTP:       &http.Client{},
			Log:        obs.Component("failover"),
		}
		go s.super.Run(ctx)
	}
	if s.isFollower() {
		go s.follow(ctx)
	} else {
		go s.drive(ctx)
	}
	go func() {
		if err := s.hsrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.log.Error("http server failed", "err", err)
		}
	}()
	s.log.Info("abgd listening",
		"addr", ln.Addr().String(), "scheduler", s.sched.Name(),
		"P", s.cfg.P, "L", s.cfg.L, "clock", string(s.cfg.Clock),
		"role", Role(s.role.Load()).String())
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Drain initiates a graceful drain: admission stops (a new submission gets
// 503; a keyed retry of an acked one still gets its ids), accepted jobs run
// to completion at fast-forward speed, then the listener shuts down.
// Idempotent; Wait blocks until the drain completes. The command is
// journaled, so a daemon restarted on this journal finishes the drain
// instead of reopening admission.
//
// The drain record is appended and the flag flipped in one s.mu critical
// section, which SubmitLocal re-checks under the same lock: every submit
// record precedes the drain record, every acked job is in the queue the
// final drain admits, and the driver cannot see the flag (and finish, and
// let Wait close the journal) before the record is written.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining.Load() {
		s.log.Info("drain initiated")
		_ = s.appendJournal(persist.KindDrain, nil)
		s.draining.Store(true)
	}
	s.mu.Unlock()
	s.notify()
}

// NewHTTPServer returns the http.Server that a daemon or a cluster front
// door serves handler with. Its Shutdown closes every connection that has
// not sent a request yet: net/http counts such a connection as active until
// it is 5 s old, so one client that dialed and stayed silent would hold a
// finished drain for that long.
func NewHTTPServer(handler http.Handler) *http.Server {
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	var (
		mu       sync.Mutex
		silent   = map[net.Conn]struct{}{}
		shutdown bool
	)
	hs.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case st != http.StateNew:
			delete(silent, c)
		case shutdown: // accepted just as the listener closed
			c.Close()
		default:
			silent[c] = struct{}{}
		}
	}
	hs.RegisterOnShutdown(func() {
		mu.Lock()
		defer mu.Unlock()
		shutdown = true
		for c := range silent {
			c.Close()
		}
	})
	return hs
}

// AwaitDrained blocks until drained closes, then shuts hs down: the end of
// Wait for a daemon and a cluster front door alike. Requests in flight get
// 5 s to finish before their connections are closed.
func AwaitDrained(drained <-chan struct{}, hs *http.Server) {
	<-drained
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
}

// Wait blocks until the server has fully drained, then shuts the HTTP
// listener down and returns the verdict FinishExternal recorded: the first
// fatal engine error, or an invariant violation.
func (s *Server) Wait() error {
	AwaitDrained(s.drained, s.hsrv)
	return s.verdict
}

// notify wakes the driver loop (non-blocking).
func (s *Server) notify() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// --- HTTP surface ---------------------------------------------------------

func (s *Server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	// Every route is wrapped by s.instrument; the label is the path pattern,
	// so metric cardinality is bounded by the route table, not client URLs.
	mux.HandleFunc("POST /api/v1/jobs", s.instrument("/api/v1/jobs", s.handleSubmit))
	mux.HandleFunc("GET /api/v1/jobs", s.instrument("/api/v1/jobs", s.handleJobs))
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.instrument("/api/v1/jobs/{id}", s.handleJob))
	mux.HandleFunc("GET /api/v1/jobs/{id}/timeline", s.instrument("/api/v1/jobs/{id}/timeline", s.handleTimeline))
	mux.HandleFunc("GET /api/v1/traces/{id}", s.instrument("/api/v1/traces/{id}", s.handleTrace))
	mux.HandleFunc("GET /api/v1/state", s.instrument("/api/v1/state", s.handleState))
	mux.HandleFunc("GET /api/v1/events", s.instrument("/api/v1/events", s.hub.Handler(s.sched.Name())))
	mux.HandleFunc("POST /api/v1/drain", s.instrument("/api/v1/drain", s.handleDrain))
	mux.HandleFunc("GET /api/v1/recovery", s.instrument("/api/v1/recovery", s.handleRecovery))
	mux.HandleFunc("GET /api/v1/journal", s.instrument("/api/v1/journal", s.handleJournal))
	mux.HandleFunc("GET /api/v1/replication", s.instrument("/api/v1/replication", s.handleReplication))
	mux.HandleFunc("POST /api/v1/promote", s.instrument("/api/v1/promote", s.handlePromote))
	mux.HandleFunc("POST /api/v1/fence", s.instrument("/api/v1/fence", s.handleFence))
	mux.HandleFunc("GET /api/v1/version", s.instrument("/api/v1/version", s.handleVersion))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	return mux
}

// SubmitResponse acknowledges an accepted submission. State is "queued"
// for a fresh acceptance and "duplicate" when the request's idempotency key
// matched an earlier submission — IDs then repeats the original ids.
type SubmitResponse struct {
	IDs    []int  `json:"ids"`
	State  string `json:"state"`
	Queued int    `json:"queued"`
	// TraceID echoes the request's X-Abg-Trace-Id header; the submission's
	// end-to-end trace is then readable at /api/v1/traces/{traceId}.
	TraceID string `json:"traceId,omitempty"`
	// Offset is the commit offset: the journal length, in bytes, that
	// includes this submission's record. A read against any replica carrying
	// X-Abg-Min-Offset: <Offset> is guaranteed to observe the submission
	// (read-your-writes). Zero without a journal.
	Offset int64 `json:"offset,omitempty"`
}

// ServeSubmit answers POST /api/v1/jobs for the daemon and the cluster front
// door alike: it decodes the request (1 MiB at most), normalizes it, and
// answers with what submit returns — the ack under its status, or the error
// under its own, with Retry-After on a 429.
func ServeSubmit[Ack any](w http.ResponseWriter, r *http.Request, submit func(req JobRequest, traceID string) (Ack, int, error)) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorDTO{"bad request body: " + err.Error()})
		return
	}
	if err := req.Normalize(); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorDTO{err.Error()})
		return
	}
	ack, status, err := submit(req, r.Header.Get(TraceHeader))
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		WriteJSON(w, status, ErrorDTO{err.Error()})
		return
	}
	WriteJSON(w, status, ack)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.rejectWrite(w, r) || s.redirectToLeader(w, r) {
		return
	}
	ServeSubmit(w, r, func(req JobRequest, traceID string) (SubmitResponse, int, error) {
		ack, status, err := s.SubmitLocal(req, traceID)
		if ack.Offset > 0 {
			w.Header().Set(OffsetHeader, strconv.FormatInt(ack.Offset, 10))
		}
		return ack, status, err
	})
}

// SubmitLocal runs the admission path for an already-normalized request:
// idempotency-key dedup, the draining gate, queue-limit backpressure,
// journal-before-ack, id assignment, trace registration. It is the one
// admission gate, behind POST /api/v1/jobs and the cluster front end's
// per-shard routing alike. The returned status is the HTTP status the
// caller should answer with (202 queued, 200 duplicate); a non-nil error
// carries a 4xx/5xx status instead.
func (s *Server) SubmitLocal(req JobRequest, traceID string) (SubmitResponse, int, error) {
	if req.Seed == 0 {
		req.Seed = s.cfg.Seed
	}
	// Build the profiles outside the engine lock: generation cost must not
	// stall the quantum clock.
	profiles := req.profiles(s.cfg.L)

	s.mu.Lock()
	if req.Key != "" {
		if ids, ok := s.keys[req.Key]; ok {
			// Seen before — possibly acked into a journal whose ack the
			// client never received. Same key, same jobs, no double admit.
			// The original submission's trace (if any) keeps following the
			// jobs; the duplicate only echoes the id. The commit offset is
			// the current journal size — it covers the original record.
			depth := len(s.queue)
			var off int64
			if s.journal != nil {
				off = s.journal.Size()
			}
			s.mu.Unlock()
			return SubmitResponse{
				IDs: ids, State: "duplicate", Queued: depth, TraceID: traceID, Offset: off,
			}, http.StatusOK, nil
		}
	}
	// Checked under s.mu, where Drain journals its record and flips the
	// flag: an ack can never follow the drain record. A retry answered
	// above admits nothing, so it is answered during a drain too.
	if s.draining.Load() {
		s.mu.Unlock()
		return SubmitResponse{}, http.StatusServiceUnavailable,
			fmt.Errorf("draining: admission closed")
	}
	if len(s.queue)+req.Count > s.cfg.QueueLimit {
		depth := len(s.queue)
		s.mu.Unlock()
		s.metrics.rejected.Inc()
		return SubmitResponse{}, http.StatusTooManyRequests,
			fmt.Errorf("admission queue full (%d/%d)", depth, s.cfg.QueueLimit)
	}
	// The journal record precedes the ack: once the client hears 202, the
	// submission is recoverable. The reverse order would let a crash forget
	// an acked job.
	var off int64
	if s.journal != nil {
		rec := submitRecord{firstID: s.nextID, req: req}
		if err := s.appendJournal(persist.KindSubmit, encodeSubmit(rec)); err != nil {
			s.mu.Unlock()
			return SubmitResponse{}, http.StatusServiceUnavailable,
				fmt.Errorf("journal write failed: %w", err)
		}
		off = s.journal.Size()
	}
	ids := s.enqueueLocked(req, profiles)
	if traceID != "" {
		s.traces.add(traceID, traceRef{first: ids[0], count: len(ids), submitted: s.eng.Now()})
	}
	depth := len(s.queue)
	s.mu.Unlock()
	s.notify()
	return SubmitResponse{
		IDs: ids, State: "queued", Queued: depth, TraceID: traceID, Offset: off,
	}, http.StatusAccepted, nil
}

// enqueueLocked puts one journaled submission's jobs on the admission queue
// under the next dense ids and records its idempotency key. SubmitLocal and
// an applied submit record (a follower's, or recovery's tail) both enqueue
// here. Caller holds s.mu.
func (s *Server) enqueueLocked(req JobRequest, profiles []*job.Profile) []int {
	ids := s.promiseLocked(req)
	for i, id := range ids {
		s.queue = append(s.queue, pendingJob{id: id, name: req.jobName(i, id), profile: profiles[i]})
	}
	return ids
}

// promiseLocked assigns one journaled submission's jobs the next dense ids
// and records its idempotency key. Caller holds s.mu.
func (s *Server) promiseLocked(req JobRequest) []int {
	ids := make([]int, req.Count)
	for i := range ids {
		ids[i] = s.nextID
		s.nextID++
	}
	if req.Key != "" {
		s.keys[req.Key] = ids
	}
	return ids
}

// JobStatusDTO is the JSON wire form of one job's live status.
type JobStatusDTO struct {
	ID             int            `json:"id"`
	Name           string         `json:"name"`
	State          string         `json:"state"`
	Release        int64          `json:"release"`
	Completion     int64          `json:"completion,omitempty"`
	Response       int64          `json:"response,omitempty"`
	Work           int64          `json:"work"`
	CriticalPath   int            `json:"criticalPath"`
	Request        float64        `json:"request"`
	IntRequest     int            `json:"intRequest"`
	Allotment      int            `json:"allotment"`
	Parallelism    float64        `json:"parallelism"`
	Deprived       bool           `json:"deprived"`
	NumQuanta      int            `json:"numQuanta"`
	DeprivedQuanta int            `json:"deprivedQuanta"`
	Restarts       int            `json:"restarts,omitempty"`
	LostWork       int64          `json:"lostWork,omitempty"`
	Waste          int64          `json:"waste"`
	History        []HistoryEntry `json:"history,omitempty"`
}

// statusDTO converts an engine snapshot.
func statusDTO(st sim.JobStatus) JobStatusDTO {
	return JobStatusDTO{
		ID: st.ID, Name: st.Name, State: st.State.String(),
		Release: st.Release, Completion: st.Completion, Response: st.Response,
		Work: st.Work, CriticalPath: st.CriticalPath,
		Request: st.Request, IntRequest: st.IntRequest,
		Allotment: st.Allotment, Parallelism: st.Parallelism,
		Deprived: st.Deprived, NumQuanta: st.NumQuanta,
		DeprivedQuanta: st.DeprivedQ, Restarts: st.Restarts,
		LostWork: st.LostWork, Waste: st.Waste,
	}
}

// status is the wire form of a job still in the admission queue.
func (p pendingJob) status() JobStatusDTO {
	return JobStatusDTO{ID: p.id, Name: p.name, State: "queued",
		Work: p.profile.Work(), CriticalPath: p.profile.CriticalPathLen()}
}

// LookupJob resolves a job id to its status: engine-owned, still queued, or
// unknown.
func (s *Server) LookupJob(id int) (JobStatusDTO, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupJobLocked(id)
}

// lookupJobLocked is LookupJob for a caller that holds s.mu.
func (s *Server) lookupJobLocked(id int) (JobStatusDTO, bool) {
	if st, ok := s.eng.JobStatus(id); ok {
		return statusDTO(st), true
	}
	for _, p := range s.queue {
		if p.id == id {
			return p.status(), true
		}
	}
	return JobStatusDTO{}, false
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if s.waitMinOffset(w, r) {
		return
	}
	id, ok := PathJobID(w, r)
	if !ok {
		return
	}
	dto, ok := s.LookupJob(id)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorDTO{fmt.Sprintf("unknown job %d", id)})
		return
	}
	dto.History = s.JobHistory(id)
	WriteJSON(w, http.StatusOK, dto)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if s.waitMinOffset(w, r) {
		return
	}
	WriteJSON(w, http.StatusOK, s.JobStatuses())
}

// StateDTO is the scheduler-wide snapshot served at /api/v1/state.
type StateDTO struct {
	Version       string  `json:"version"`
	Scheduler     string  `json:"scheduler"`
	P             int     `json:"p"`
	L             int     `json:"l"`
	Clock         string  `json:"clock"`
	Draining      bool    `json:"draining"`
	Boundary      int     `json:"boundary"`
	Now           int64   `json:"now"`
	QuantaElapsed int     `json:"quantaElapsed"`
	Submitted     int     `json:"submitted"`
	Queued        int     `json:"queued"`
	Pending       int     `json:"pending"`
	Running       int     `json:"running"`
	Completed     int     `json:"completed"`
	QueueLimit    int     `json:"queueLimit"`
	Makespan      int64   `json:"makespan"`
	TotalWaste    int64   `json:"totalWaste"`
	MeanResponse  float64 `json:"meanResponse"`
	SSEClients    int64   `json:"sseClients"`
	SSEDropped    int64   `json:"sseDropped"`
	LastEventID   uint64  `json:"lastEventId"`
	// HTTP request latency percentiles across all routes, estimated from
	// the server's latency histogram (obs.Histogram.Quantile); zero until
	// the first request completes.
	HTTPRequests     int64   `json:"httpRequests"`
	HTTPLatencyP50Ms float64 `json:"httpLatencyP50Ms,omitempty"`
	HTTPLatencyP95Ms float64 `json:"httpLatencyP95Ms,omitempty"`
	HTTPLatencyP99Ms float64 `json:"httpLatencyP99Ms,omitempty"`
	Fault            string  `json:"fault,omitempty"`
	Error            string  `json:"error,omitempty"`
	UptimeSec        float64 `json:"uptimeSec"`
}

// Snapshot assembles the scheduler-wide state (the /api/v1/state body).
func (s *Server) Snapshot() StateDTO {
	s.mu.Lock()
	tally := s.eng.Tally()
	st := StateDTO{
		Version:       cli.Version,
		Scheduler:     s.sched.Name(),
		P:             s.cfg.P,
		L:             s.cfg.L,
		Clock:         string(s.cfg.Clock),
		Draining:      s.draining.Load(),
		Boundary:      s.eng.Boundary(),
		Now:           s.eng.Now(),
		QuantaElapsed: s.eng.QuantaElapsed(),
		Submitted:     s.nextID,
		Queued:        len(s.queue),
		Pending:       tally.Pending,
		Running:       tally.Running,
		Completed:     tally.Done,
		QueueLimit:    s.cfg.QueueLimit,
		Makespan:      tally.Makespan,
		TotalWaste:    tally.TotalWaste,
	}
	if s.fatal != nil {
		st.Error = s.fatal.Error()
	}
	s.mu.Unlock()
	if st.Completed > 0 {
		st.MeanResponse = float64(tally.ResponseSum) / float64(st.Completed)
	}
	s.hub.FillState(&st)
	s.metrics.http.FillState(&st)
	if !s.plan.IsZero() {
		st.Fault = s.plan.String()
	}
	if st.Error == "" && s.checker != nil {
		if err := s.checker.Err(); err != nil {
			st.Error = err.Error()
		}
	}
	st.UptimeSec = time.Since(s.started).Seconds()
	return st
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	if s.waitMinOffset(w, r) {
		return
	}
	WriteJSON(w, http.StatusOK, s.Snapshot())
}

// ServeDrain answers POST /api/v1/drain for the daemon and the cluster front
// door alike: it starts the drain and, with ?wait=1, answers once drained
// closes (or the client gives up).
func ServeDrain(w http.ResponseWriter, r *http.Request, drain func(), drained <-chan struct{}) {
	drain()
	done := false
	if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
		select {
		case <-drained:
			done = true
		case <-r.Context().Done():
		}
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"draining": true, "done": done})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if !s.redirectToLeader(w, r) {
		ServeDrain(w, r, s.Drain, s.drained)
	}
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{
		"version":   cli.Version,
		"go":        runtime.Version(),
		"scheduler": s.sched.Name(),
	})
}

// HealthDTO is the /healthz body. Status is "ok", "degraded" (durability
// debt or snapshot age over its configured ceiling — the daemon still
// serves, but an operator should look), "failing" (fatal engine error or
// invariant violation), or "fenced" (this leader was deposed by a
// successor epoch and is shutting down). Everything but "ok" answers 503
// so probes and load balancers eject the instance; the body says why.
type HealthDTO struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining,omitempty"`
	// Role is the replication role, "leader" or "follower".
	Role string `json:"role"`
	// ReplConnected and ReplLagBytes describe a follower's replication
	// stream: whether it is currently attached to its leader, and the
	// best-effort byte lag behind the leader's journal. A detached follower
	// reports degraded — it still serves (possibly stale) reads, but an
	// operator should look. Absent on leaders.
	ReplConnected *bool `json:"replConnected,omitempty"`
	ReplLagBytes  int64 `json:"replLagBytes,omitempty"`
	// JournalLag is the journal's current durability debt — records appended
	// since the last fsync — and LagMax its ceiling. Absent without -journal;
	// LagMax is also absent under -fsync=never, which has no ceiling.
	JournalLag int `json:"journalLag,omitempty"`
	LagMax     int `json:"lagMax,omitempty"`
	// SnapshotAge is executed quanta since the last engine snapshot, AgeMax
	// its ceiling. Absent without -journal.
	SnapshotAge int `json:"snapshotAge,omitempty"`
	AgeMax      int `json:"ageMax,omitempty"`
	// Invariants is "ok", "violated", or "off" (no checker configured).
	Invariants string `json:"invariants"`
	// Reasons lists everything that pushed Status off "ok".
	Reasons []string `json:"reasons,omitempty"`
}

// Health assembles the health verdict and its HTTP status.
func (s *Server) Health() (HealthDTO, int) {
	s.mu.Lock()
	fatal := s.fatal
	j := s.journal
	age := s.eng.QuantaElapsed() - s.lastSnapQ
	s.mu.Unlock()

	dto := HealthDTO{
		Status: "ok", Invariants: "off", Draining: s.draining.Load(),
		Role: Role(s.role.Load()).String(),
	}
	if s.isFollower() {
		repl := s.replication()
		connected := repl.Tail != nil && repl.Tail.Connected
		dto.ReplConnected = &connected
		dto.ReplLagBytes = repl.LagBytes
		if !connected && !s.draining.Load() {
			dto.Status = "degraded"
			dto.Reasons = append(dto.Reasons, fmt.Sprintf(
				"replication stream detached from %s (lag %d bytes)",
				repl.Tail.Leader, repl.LagBytes))
		}
	}
	if s.checker != nil {
		dto.Invariants = "ok"
		if err := s.checker.Err(); err != nil {
			dto.Invariants = "violated"
			dto.Reasons = append(dto.Reasons, "invariant violated: "+err.Error())
		}
	}
	if fatal != nil {
		dto.Reasons = append(dto.Reasons, "fatal: "+fatal.Error())
	}
	if fatal != nil || dto.Invariants == "violated" {
		dto.Status = "failing"
	}
	if s.fenced.Load() {
		dto.Status = "fenced"
	}
	if j != nil {
		dto.JournalLag = j.Lag()
		if persist.SyncPolicy(s.cfg.Fsync) != persist.SyncNever {
			dto.LagMax = s.cfg.JournalLagMax
		}
		dto.SnapshotAge = age
		dto.AgeMax = s.cfg.SnapshotAgeMax
		if dto.Status == "ok" {
			if dto.LagMax > 0 && dto.JournalLag > dto.LagMax {
				dto.Status = "degraded"
				dto.Reasons = append(dto.Reasons, fmt.Sprintf(
					"journal lag %d records exceeds %d (unsynced durability debt)",
					dto.JournalLag, dto.LagMax))
			}
			if dto.SnapshotAge > dto.AgeMax {
				dto.Status = "degraded"
				dto.Reasons = append(dto.Reasons, fmt.Sprintf(
					"last snapshot %d quanta old exceeds %d (recovery replay growing)",
					dto.SnapshotAge, dto.AgeMax))
			}
		}
	}
	code := http.StatusOK
	if dto.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	return dto, code
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	dto, code := s.Health()
	WriteJSON(w, code, dto)
}
