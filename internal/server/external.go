package server

import (
	"fmt"
	"runtime"
	"slices"

	"abg/internal/obs"
	"abg/internal/sim"
)

// External drive. The cluster layer (internal/cluster) embeds N Servers as
// engine shards behind one front door. A shard is never Start()ed — it binds
// no listener and runs no driver goroutine; instead the cluster's driver
// calls the methods below, in lockstep rounds, from a single goroutine:
//
//	for each round:
//	  desire[k] = shard[k].AggregateDesire()        (serial)
//	  share[k]  = clusterAllocator(desire, totalP)
//	  shard[k].SetShare(share[k])                   (serial)
//	  shard[k].StepExternal(idleOK)                 (parallel across shards)
//
// Everything else a shard owns — journaling, snapshots, recovery, the SSE
// hub with its exact event ids, idempotency dedup, per-shard metrics —
// works unchanged, because StepExternal is the step the daemon's own clock
// drives. Concurrent StepExternal calls on *different* shards are safe
// (each shard's mutable state is guarded by its own mutex and its own bus);
// a single shard must only ever be stepped by one goroutine at a time.
//
// Both fronts stop the same way: DrainShards runs the drain sequence over
// a daemon (a front door of one shard, itself) or a cluster's shards.

// NeedsSteps reports whether the shard still has work the driver must step:
// unfinished jobs or queued admissions, and no fatal error (a wedged shard
// cannot make progress; stepping it forever would hang the cluster's drain).
func (s *Server) NeedsSteps() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fatal == nil && (!s.eng.Done() || len(s.queue) > 0)
}

// AggregateDesire is the shard's second-level processor request: the sum of
// its unfinished jobs' current integer requests (sim.Engine.AggregateRequest)
// plus one processor per queued job, so a shard whose work is still in the
// admission queue is not starved of the capacity it needs to start it.
func (s *Server) AggregateDesire() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.AggregateRequest() + len(s.queue)
}

// SetShare pins the cluster-assigned capacity share for the quantum the next
// StepExternal will execute. No-op unless the shard was built with a
// ShareTable capacity override (Config.Capacity).
func (s *Server) SetShare(share int) {
	t, ok := s.capacity.(*ShareTable)
	if !ok {
		return
	}
	s.mu.Lock()
	t.Set(s.eng.Boundary()+1, share)
	s.mu.Unlock()
}

// DrainShards runs the drain sequence over the shards behind one front door
// (a daemon's own engine, or every shard of a cluster) once admission is
// closed: DrainEngine on every shard, then rounds until no shard NeedsSteps,
// then FinishExternal on every shard, whose verdicts it returns in shard
// order. round steps every shard one quantum. Each round first waits for
// the readers of hub, the stream the front door serves (see pacer), and
// then yields, so the drain does not out-run a subscriber that keeps up.
func DrainShards(shards []*Server, hub *EventHub, round func()) []error {
	p := &pacer{hub: hub, seq: hub.Seq(), queues: map[chan sseMsg]queueWatch{}}
	for _, s := range shards {
		s.DrainEngine()
	}
	for slices.ContainsFunc(shards, (*Server).NeedsSteps) {
		p.wait()
		round()
		runtime.Gosched()
	}
	verdicts := make([]error, len(shards))
	for k, s := range shards {
		verdicts[k] = s.FinishExternal()
	}
	return verdicts
}

// DrainEngine flushes the admission queue and closes engine admission: the
// first step of the drain sequence, so snapshots written during the closing
// fast-forward record the engine as draining — keeping a one-shard
// cluster's journal byte-identical to a single daemon's.
func (s *Server) DrainEngine() {
	s.mu.Lock()
	if s.fatal == nil {
		s.admitLocked()
	}
	if s.fatal == nil {
		s.eng.Drain()
	}
	s.mu.Unlock()
}

// FinishExternal ends every way a daemon stops — a leader's or a shard's
// drain once NeedsSteps is false, a follower's drain-out with its leader, a
// follower's shutdown or wedge: it syncs and closes the journal, releases
// the SSE clients and the lifecycle channels, and records the verdict Wait
// returns: the first fatal error, or the invariant checker's, or nil.
func (s *Server) FinishExternal() error {
	s.mu.Lock()
	if s.journal != nil {
		// A torn final flush must not masquerade as a clean shutdown: record
		// it as the fatal error so /healthz reports failing and Wait — hence
		// the process exit code — surfaces it.
		if err := s.journal.Close(); err != nil && s.fatal == nil {
			s.failLocked(fmt.Errorf("journal sync at drain: %w", err))
		}
	}
	s.verdict = s.fatal
	jobs := s.eng.NumJobs() - s.eng.Remaining()
	s.mu.Unlock()
	if s.verdict == nil && s.checker != nil {
		s.verdict = s.checker.Err()
	}
	s.log.Info("drain complete", "jobs", jobs, "role", Role(s.role.Load()).String())
	s.hub.Close()
	close(s.drained)
	close(s.stopped)
	return s.verdict
}

// Kill simulates SIGKILL for crash-recovery tests: the driver (if one is
// running) stops dead without draining, and the journal is closed.
// Journal.Close syncs first, which a killed process does not, but every
// append already went straight to the file, so a daemon restarted on the
// directory reads the bytes a SIGKILL would have left.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.notify()
	s.mu.Lock()
	if s.journal != nil {
		_ = s.journal.Close()
	}
	s.mu.Unlock()
}

// Fatal returns the shard's first fatal error, if any.
func (s *Server) Fatal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fatal
}

// QueueDepth returns the admission queue's current depth.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Load is the router's load signal: queued plus admitted-but-unfinished jobs.
func (s *Server) Load() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) + s.eng.Remaining()
}

// JobStatuses returns every job's status — engine-held jobs in ascending id
// order, then still-queued ones (the GET /api/v1/jobs body).
func (s *Server) JobStatuses() []JobStatusDTO {
	s.mu.Lock()
	defer s.mu.Unlock()
	sts := s.eng.Statuses()
	out := make([]JobStatusDTO, 0, len(sts)+len(s.queue))
	for _, st := range sts {
		out = append(out, statusDTO(st))
	}
	for _, p := range s.queue {
		out = append(out, p.status())
	}
	return out
}

// JobTimeline returns a job's quantum-timeline DTO (the
// GET /api/v1/jobs/{id}/timeline body), or false for an unknown job.
func (s *Server) JobTimeline(id int) (TimelineDTO, bool) {
	s.mu.Lock()
	st, ok := s.lookupJobLocked(id)
	samples, evicted, _ := s.eng.Timeline(id)
	s.mu.Unlock()
	if samples == nil {
		samples = []sim.QuantumSample{}
	}
	return TimelineDTO{ID: id, Name: st.Name, State: st.State,
		Ring: s.cfg.TimelineRing, Evicted: evicted, Samples: samples}, ok
}

// IdemKeys returns a copy of the idempotency-key table (key → promised ids).
// The cluster front end rebuilds its key → shard routing from this at boot,
// so a recovered cluster keeps deduplicating retries of pre-crash acks.
func (s *Server) IdemKeys() map[string][]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]int, len(s.keys))
	for k, ids := range s.keys {
		out[k] = append([]int(nil), ids...)
	}
	return out
}

// SSESeq returns the id of the shard's most recently published SSE event.
func (s *Server) SSESeq() uint64 { return s.hub.Seq() }

// RelayEvents hands the shard's event stream to the cluster front door,
// which taps the shard's bus and renders every event into its own merged
// hub. Nothing serves the shard's own stream — a shard is never Start()ed —
// so from now on the shard's hub only numbers events (SSESeq and snapshot
// records need the count): it renders and keeps no frames, and it releases
// those that recovery's replay left in its ring.
func (s *Server) RelayEvents() { s.hub.dropFrames() }

// Recovery returns the boot-time recovery report.
func (s *Server) Recovery() RecoveryDTO {
	s.mu.Lock()
	defer s.mu.Unlock()
	dto := s.recovery
	dto.Snapshots = s.snapshotCount
	dto.LastSnapshotQuantum = s.lastSnapQ
	return dto
}

// MetricsRegistry returns the shard's metric registry, and SampleMetrics
// refreshes its scrape-sampled gauges — the cluster's /metrics renders every
// shard's registry under a shard label (promexport.WriteSets).
func (s *Server) MetricsRegistry() *obs.Registry { return s.metrics.reg }
