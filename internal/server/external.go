package server

import (
	"fmt"

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
// works unchanged, because StepExternal is the same stepOnce the internal
// clock drives. Concurrent StepExternal calls on *different* shards are safe
// (each shard's mutable state is guarded by its own mutex and its own bus);
// a single shard must only ever be stepped by one goroutine at a time.

// StepExternal admits everything queued at the current boundary and advances
// the engine one quantum, exactly as one tick of the internal quantum clock
// would. idleOK selects whether an empty shard still consumes a boundary
// (wall clock: yes; virtual clock: no).
func (s *Server) StepExternal(idleOK bool) { s.stepOnce(idleOK) }

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

// DrainEngine flushes the admission queue and closes engine admission: the
// first step of the drain sequence, run once admission is closed (Drain).
// The daemon's own driver and the cluster (once per shard) both run it
// before the closing fast-forward, so snapshots written during those quanta
// record the engine as draining — keeping a one-shard cluster's journal
// byte-identical to a single daemon's.
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

// FinishExternal completes the drain sequence once the driver has stepped
// until NeedsSteps is false: sync and close the journal, and release the
// SSE clients and lifecycle channels. Returns the verdict the way Wait
// does: the first fatal error, or the invariant checker's, or nil.
func (s *Server) FinishExternal() error {
	s.mu.Lock()
	if s.fatal == nil && s.journal != nil {
		if err := s.journal.Sync(); err != nil {
			// A torn final flush must not masquerade as a clean shutdown:
			// record it as the fatal error so /healthz reports failing and
			// Wait — hence the process exit code — surfaces it.
			s.failLocked(fmt.Errorf("journal sync at drain: %w", err))
		}
	}
	err := s.fatal
	if s.journal != nil {
		_ = s.journal.Close()
	}
	s.mu.Unlock()
	s.hub.Close()
	s.closeDrained()
	s.closeStopped()
	if err != nil {
		return err
	}
	if s.checker != nil {
		return s.checker.Err()
	}
	return nil
}

// Kill simulates SIGKILL for crash-recovery tests: the driver (if one is
// running) stops dead without draining, and the journal file handle is
// released without a final sync — exactly the state a killed process leaves
// on disk, since every append already went straight to the file.
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

// Draining reports whether admission has been closed.
func (s *Server) Draining() bool { return s.draining.Load() }

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

// Snapshot returns the shard-wide state snapshot (the /api/v1/state body).
func (s *Server) Snapshot() StateDTO { return s.snapshot() }

// LookupJob resolves a shard-local job id to its status DTO.
func (s *Server) LookupJob(id int) (JobStatusDTO, bool) { return s.lookupJob(id) }

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

// Health returns the shard's health verdict and its HTTP status code.
func (s *Server) Health() (HealthDTO, int) { return s.health() }

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

// SampleMetrics refreshes the scrape-sampled gauges (see MetricsRegistry).
func (s *Server) SampleMetrics() { s.sampleMetrics() }

// MarshalEvent renders one instrumentation event exactly as the SSE stream
// does — the cluster's merged stream reuses it so a one-shard cluster's
// frames are byte-identical to a single daemon's.
func MarshalEvent(e obs.Event) []byte { return marshalEvent(e) }
