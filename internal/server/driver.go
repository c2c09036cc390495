package server

import (
	"context"
	"fmt"
	"time"

	"abg/internal/core"
	"abg/internal/fault"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/persist"
	"abg/internal/sim"
)

// Clock is the quantum clock: the loop one driver goroutine runs to pace
// quantum boundaries. A daemon drives its own engine with it; a cluster
// front door drives lockstep rounds across its shards with it.
//
// Wall mode executes one boundary per Tick of real time — idle boundaries
// advance simulated time just like busy ones, so sim time tracks wall time.
// Virtual mode fast-forwards: it steps back-to-back while HasWork holds and
// parks (no time passes) otherwise, which is what load tests and CI smokes
// want. Cancelling ctx — the SIGTERM path — calls Drain. Run returns once
// Stop reports true; the caller then runs its drain sequence.
type Clock struct {
	Mode ClockMode
	Tick time.Duration
	// Wake interrupts a wait so Stop (and, in virtual mode, HasWork) is
	// re-checked; admission still waits for the next boundary.
	Wake    <-chan struct{}
	Stop    func() bool
	HasWork func() bool
	// Step executes one boundary; idleOK is set for wall ticks, where an
	// empty system still consumes the boundary.
	Step  func(idleOK bool)
	Drain func()
}

// Run paces boundaries until Stop reports true.
func (c Clock) Run(ctx context.Context) {
	var tick <-chan time.Time // nil in virtual mode: never fires
	if c.Mode == ClockWall {
		t := time.NewTicker(c.Tick)
		defer t.Stop()
		tick = t.C
	}
	for !c.Stop() {
		if c.Mode != ClockWall && c.HasWork() {
			c.Step(false)
			continue
		}
		select {
		case <-ctx.Done():
			c.Drain()
		case <-tick:
			c.Step(true)
		case <-c.Wake:
		}
	}
}

// drive is the daemon's driver goroutine: the only goroutine that advances
// the engine. All engine mutation happens here (and in the admission step it
// performs), serialised with the HTTP handlers by s.mu.
//
// Once draining — admission closed — it runs the drain sequence a cluster
// runs over its shards (DrainShards) with this daemon as the one shard: the
// engine fast-forwards to completion regardless of clock mode, and
// FinishExternal closes the drained channel, releasing Server.Wait and any
// /api/v1/drain?wait=1 callers.
func (s *Server) drive(ctx context.Context) {
	Clock{
		Mode: s.cfg.Clock, Tick: s.cfg.Tick, Wake: s.wake,
		Stop:    func() bool { return s.killed.Load() || s.draining.Load() },
		HasWork: s.NeedsSteps, Step: s.StepExternal, Drain: s.Drain,
	}.Run(ctx)
	if s.killed.Load() {
		// Crash simulation (tests only): stop dead, no drain, no final
		// journal flush — exactly what SIGKILL leaves behind.
		close(s.stopped)
		return
	}
	DrainShards([]*Server{s}, s.hub, func() { s.StepExternal(false) }) // Wait reports the verdict
}

// StepExternal admits everything queued at the current boundary and advances
// the engine one quantum: one tick of the quantum clock, whether the
// daemon's own driver or a cluster's round turns it. idleOK selects whether
// an empty system still consumes a boundary (wall clock: yes, time passes;
// virtual clock: no).
func (s *Server) StepExternal(idleOK bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal != nil {
		return
	}
	s.admitLocked()
	if s.fatal != nil {
		return
	}
	if !idleOK && s.eng.Done() {
		return
	}
	if s.journalStepLocked() != nil {
		return
	}
	if _, err := s.eng.Step(); err != nil {
		s.failLocked(err)
		return
	}
	if t, ok := s.capacity.(*ShareTable); ok {
		// Executed quanta can never be re-read; keep the table bounded.
		t.PruneBelow(s.eng.Boundary())
	}
	s.maybeSnapshotLocked()
}

// journalStepLocked writes the step record for the quantum about to execute.
// Idle boundaries — every job done, nothing queued — are skipped: they do no
// work, emit no events, and journaling each wall tick of an idle daemon
// would grow the journal without bound. Working boundaries must hit the
// journal before the engine runs them so a follower (or a reference replay)
// can re-execute exactly the quanta the leader executed. Caller holds s.mu.
func (s *Server) journalStepLocked() error {
	if s.journal == nil || s.eng.Done() {
		return nil
	}
	rec := stepRecord{boundary: s.eng.Boundary(), share: -1}
	// In cluster mode the quantum about to execute runs under the share the
	// cluster allocator pinned for it; the record must carry it so this
	// shard's recovery replays under the same capacity (see stepRecord).
	if t, ok := s.capacity.(*ShareTable); ok {
		if share, pinned := t.ShareAt(rec.boundary + 1); pinned {
			rec.share = share
		}
	}
	return s.appendJournal(persist.KindStep, encodeStep(rec))
}

// admitLocked admits every queued job at the current boundary. The admit
// record is journaled before the engine sees the jobs: events for this
// boundary only flow once Step runs, so a crash anywhere in between
// recovers to "admitted at this boundary" without ever having exposed
// observable state that the replay would contradict.
func (s *Server) admitLocked() {
	if len(s.queue) == 0 {
		return
	}
	rec := admitRecord{boundary: s.eng.Boundary()}
	for _, p := range s.queue {
		rec.ids = append(rec.ids, p.id)
	}
	if s.appendJournal(persist.KindAdmit, encodeAdmit(rec)) != nil {
		return // fatal; failLocked already fired
	}
	if err := s.admitQueueLocked(); err != nil {
		s.failLocked(err)
	}
}

// admitQueueLocked hands every queued job to the engine at the current
// boundary, building each spec from the profile already in the queue. The
// leader's admission and an applied admit record (a follower's, or
// recovery's) both end here. Queue order is submission order, and the
// engine assigns ids sequentially, so the engine's id for each job must
// equal the id the submission promised; any divergence is a server bug
// worth dying loudly over. The handed-over slots are cleared, so the
// queue's backing array does not keep their profiles reachable once the
// engine releases them.
func (s *Server) admitQueueLocked() error {
	for _, p := range s.queue {
		id, err := s.eng.Submit(jobSpec(p, s.eng.Now(), s.plan, s.sched, s.bus))
		if err != nil {
			return fmt.Errorf("admit job %d: %w", p.id, err)
		}
		if id != p.id {
			return fmt.Errorf("job id skew: engine assigned %d, promised %d", id, p.id)
		}
	}
	clear(s.queue)
	s.queue = s.queue[:0]
	return nil
}

// maybeSnapshotLocked writes an engine snapshot once enough quanta have
// executed since the last one. The record carries the SSE sequence counter
// captured at the same instant, so a recovered daemon numbers the replayed
// event stream identically. The engine blob is a delta holding only the
// jobs from snapFrom up: every job below it was done at the previous
// snapshot record, which (or an earlier one) holds its final entry, and
// recovery folds the chain back into the full snapshot
// (sim.FoldSnapshots). Caller holds s.mu, on the driver goroutine.
func (s *Server) maybeSnapshotLocked() {
	if s.journal == nil || s.fatal != nil {
		return
	}
	q := s.eng.QuantaElapsed()
	if q-s.lastSnapQ < s.cfg.SnapshotEvery {
		return
	}
	if s.eng.Done() && len(s.queue) == 0 && s.hub.Seq() == s.lastSnapSeq {
		// Idle wall-clock boundaries change nothing a recovery would replay;
		// snapshotting them would grow the journal without bound.
		return
	}
	blob, err := s.eng.MarshalDelta(s.snapFrom)
	if err != nil {
		s.failLocked(fmt.Errorf("snapshot: %w", err))
		return
	}
	rec := snapshotRecord{
		boundary: s.eng.Boundary(), quanta: q,
		sseSeq: s.hub.Seq(), engine: blob,
	}
	if s.appendJournal(persist.KindSnapshot, encodeSnapshot(rec)) == nil {
		s.snapshotJournaledLocked(rec)
	}
}

// snapshotJournaledLocked advances the snapshot bookkeeping past a snapshot
// record the journal now ends with, written here or shipped by the leader.
// Every job done by now is in this record or an earlier one, so the next
// delta starts at the first job still unfinished.
func (s *Server) snapshotJournaledLocked(rec snapshotRecord) {
	s.lastSnapQ = rec.quanta
	s.lastSnapSeq = rec.sseSeq
	s.snapFrom = s.eng.FirstUnfinished(s.snapFrom)
	s.snapshotCount++
	s.metrics.snapshots.Inc()
}

// jobSpec builds the engine-facing spec for one job: a fresh instance and
// policy, the control channel wrapped by the fault plan, and the plan's
// restart schedule (rebuilding restarted attempts from the same profile).
// It is the one spec builder: admission, snapshot restore and
// ReferenceResult all build here, so a replayed job is the job the writer
// ran.
func jobSpec(p pendingJob, release int64, plan fault.Plan, scheduler core.Scheduler, bus *obs.Bus) sim.JobSpec {
	spec := sim.JobSpec{
		Name:    p.name,
		Inst:    job.NewRun(p.profile),
		Policy:  plan.Policy(scheduler.NewPolicy(), p.id, bus),
		Sched:   scheduler.TaskScheduler(),
		Release: release,
	}
	if at := plan.RestartHook(p.id); at != nil {
		profile := p.profile
		spec.Restart = &sim.RestartPlan{
			At:  at,
			New: func() job.Instance { return job.NewRun(profile) },
			Max: plan.MaxRestarts,
		}
	}
	return spec
}

// failLocked records the first fatal engine error and forces a drain so the
// daemon shuts down instead of serving a wedged scheduler. Caller holds s.mu.
func (s *Server) failLocked(err error) {
	if s.fatal == nil {
		s.fatal = err
		s.log.Error("engine failed", "err", err)
	}
	s.draining.Store(true)
	s.notify()
}
