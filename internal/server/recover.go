package server

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"

	"abg/internal/alloc"
	"abg/internal/core"
	"abg/internal/fault"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/persist"
	"abg/internal/sim"
)

// Crash recovery. The journal records every externally-sourced decision
// (see journal.go); the engine is bit-identically replay-deterministic; so
// recovery is: fold the snapshot records into the last full snapshot and
// restore it, re-submit the jobs admitted after it with their journaled
// admission boundaries pinned as releases, replay the engine across those
// boundaries (which re-emits the same events under the same SSE ids), and
// re-queue acked-but-unadmitted submissions. The daemon then resumes as if
// the crash were a pause: same job ids, same completion times, same event
// stream.

// RecoveryDTO is served at /api/v1/recovery: what the boot-time recovery
// found and did, plus the live snapshot counters.
type RecoveryDTO struct {
	// Recovered reports that the daemon restored state from a non-empty
	// journal (false on a fresh journal or without -journal).
	Recovered bool `json:"recovered"`
	// JournalPath is the journal file in use, empty when persistence is off.
	JournalPath string `json:"journalPath,omitempty"`
	// Records is the number of clean records scanned at boot.
	Records int `json:"records"`
	// TruncatedBytes is the length of the torn tail discarded at boot.
	TruncatedBytes int64 `json:"truncatedBytes"`
	// SnapshotQuantum and SnapshotBoundary locate the restored snapshot
	// (zero when recovery replayed from the journal's beginning).
	SnapshotQuantum  int `json:"snapshotQuantum"`
	SnapshotBoundary int `json:"snapshotBoundary"`
	// ReplayedRecords counts the journal records applied after the restored
	// snapshot; ReplayedBoundaries the engine steps re-executed from them.
	ReplayedRecords    int `json:"replayedRecords"`
	ReplayedBoundaries int `json:"replayedBoundaries"`
	// ResumedJobs is the number of jobs live in the restored engine;
	// RequeuedJobs the acked submissions put back on the admission queue.
	ResumedJobs  int `json:"resumedJobs"`
	RequeuedJobs int `json:"requeuedJobs"`
	// Snapshots and LastSnapshotQuantum track snapshot writes since boot.
	Snapshots           int `json:"snapshots"`
	LastSnapshotQuantum int `json:"lastSnapshotQuantum"`
}

func (s *Server) handleRecovery(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	dto := s.recovery
	dto.Snapshots = s.snapshotCount
	dto.LastSnapshotQuantum = s.lastSnapQ
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, dto)
}

// openJournal opens (or creates) the journal, truncates any torn tail, and
// recovers the daemon's state from the clean records. Called from New
// before the daemon starts serving; everything here is single-threaded.
func (s *Server) openJournal() error {
	policy, _ := persist.ParseSyncPolicy(s.cfg.Fsync) // validated in normalize
	j, scan, err := persist.Open(s.cfg.JournalDir, policy)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.journal = j
	s.recovery.JournalPath = j.Path()
	s.recovery.Records = len(scan.Records)
	s.recovery.TruncatedBytes = scan.TruncatedBytes
	if scan.TruncatedBytes > 0 {
		s.log.Warn("journal tail truncated",
			"bytes", scan.TruncatedBytes, "cleanRecords", len(scan.Records))
	}
	if len(scan.Records) == 0 {
		if s.isFollower() {
			// A fresh follower journal stays empty: its first record will
			// be the leader's header, shipped over the stream, keeping the
			// file a byte prefix of the leader's journal.
			return nil
		}
		// Fresh journal: stamp it with this daemon's configuration.
		if err := j.Append(persist.KindHeader, encodeHeader(s.headerRecord())); err != nil {
			return fmt.Errorf("server: journal header: %w", err)
		}
		return nil
	}
	if err := s.recoverRecords(scan.Records); err != nil {
		return fmt.Errorf("server: recover %s: %w", j.Path(), err)
	}
	s.recovery.Recovered = true
	s.log.Info("recovered from journal",
		"records", len(scan.Records),
		"snapshotQuantum", s.recovery.SnapshotQuantum,
		"replayedBoundaries", s.recovery.ReplayedBoundaries,
		"resumedJobs", s.recovery.ResumedJobs,
		"requeuedJobs", s.recovery.RequeuedJobs,
		"truncatedBytes", s.recovery.TruncatedBytes)
	return nil
}

// journalLog is the decoded, cross-checked content of a journal.
type journalLog struct {
	header   headerRecord
	submits  []submitRecord
	admits   []admitRecord // in journal order; ids ascend across records
	admitted map[int]int   // job id → admission boundary
	// snap is the last snapshot, with snapAdmits the number of jobs
	// admitted before it (== the job count inside the engine blob), and
	// chain every snapshot record's engine blob in journal order: the fold
	// of chain is the full engine snapshot as of snap.
	snap        *snapshotRecord
	chain       [][]byte
	snapAdmits  int
	snapRecords int // records up to and including the snapshot
	// maxStep is the highest journaled step boundary (-1 when the journal
	// predates step records): the engine provably executed every boundary up
	// to and including it, so recovery replays that far even past the last
	// admission, landing on the exact state the writer held.
	maxStep int
	// shares maps step boundaries to the cluster-assigned capacity shares
	// their quanta executed under (cluster-shard journals only; see
	// stepRecord). Recovery must install them before replaying.
	shares  map[int]int
	drained bool
	nextID  int
}

// parseJournal decodes and sanity-checks a clean record stream.
func parseJournal(records []persist.Record) (*journalLog, error) {
	if records[0].Kind != persist.KindHeader {
		return nil, fmt.Errorf("journal does not start with a header record (kind %d)", records[0].Kind)
	}
	h, err := decodeHeader(records[0].Body)
	if err != nil {
		return nil, err
	}
	lg := &journalLog{header: h, admitted: make(map[int]int), maxStep: -1}
	for i, rec := range records[1:] {
		switch rec.Kind {
		case persist.KindHeader:
			return nil, fmt.Errorf("record %d: duplicate header", i+1)
		case persist.KindSubmit:
			sub, err := decodeSubmit(rec.Body)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
			if sub.firstID != lg.nextID {
				return nil, fmt.Errorf("record %d: submit ids start at %d, expected %d",
					i+1, sub.firstID, lg.nextID)
			}
			lg.nextID = sub.firstID + sub.count
			lg.submits = append(lg.submits, sub)
		case persist.KindAdmit:
			adm, err := decodeAdmit(rec.Body)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
			for _, id := range adm.ids {
				// Admission order is id order — the engine assigns dense ids
				// and the server enforces the match, so the journal must too.
				if id != len(lg.admitted) {
					return nil, fmt.Errorf("record %d: admit id %d out of order (expected %d)",
						i+1, id, len(lg.admitted))
				}
				if id >= lg.nextID {
					return nil, fmt.Errorf("record %d: admit id %d was never submitted", i+1, id)
				}
				lg.admitted[id] = adm.boundary
			}
			lg.admits = append(lg.admits, adm)
		case persist.KindDrain:
			lg.drained = true
		case persist.KindStep:
			st, err := decodeStep(rec.Body)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
			if st.boundary < lg.maxStep {
				return nil, fmt.Errorf("record %d: step boundary %d below previous %d",
					i+1, st.boundary, lg.maxStep)
			}
			lg.maxStep = st.boundary
			if st.share >= 0 {
				if lg.shares == nil {
					lg.shares = make(map[int]int)
				}
				lg.shares[st.boundary] = st.share
			}
		case persist.KindSnapshot:
			snap, err := decodeSnapshot(rec.Body)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
			lg.snap = &snap
			lg.chain = append(lg.chain, snap.engine)
			lg.snapAdmits = len(lg.admitted)
			lg.snapRecords = i + 2 // header + records[0..i]
		case persist.KindEpoch:
			// A leadership change. The scheduling replay ignores it (an epoch
			// record mutates no engine state), but the cross-check against the
			// framing epoch still catches a corrupted promotion.
			ep, err := decodeEpoch(rec.Body)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
			if ep.epoch != rec.Epoch {
				return nil, fmt.Errorf("record %d: epoch record body says %d, framing says %d",
					i+1, ep.epoch, rec.Epoch)
			}
		default:
			return nil, fmt.Errorf("record %d: unknown kind %d", i+1, rec.Kind)
		}
	}
	return lg, nil
}

// submitFor resolves a job id to its submission record and the job's index
// within that request.
func (lg *journalLog) submitFor(id int) (submitRecord, int, error) {
	return submitIn(lg.submits, id)
}

// replaySpec rebuilds the engine-facing JobSpec for one journaled job —
// the same construction the live admission path performs, pinned to the
// journaled admission boundary via Release.
func replaySpec(sub submitRecord, idx, id, l int, release int64,
	plan fault.Plan, scheduler core.Scheduler, bus *obs.Bus) sim.JobSpec {
	profile := sub.req.BuildProfile(idx, l)
	spec := sim.JobSpec{
		Name:    sub.req.jobName(idx, id),
		Inst:    job.NewRun(profile),
		Policy:  plan.Policy(scheduler.NewPolicy(), id, bus),
		Sched:   scheduler.TaskScheduler(),
		Release: release,
	}
	if at := plan.RestartHook(id); at != nil {
		p := profile
		spec.Restart = &sim.RestartPlan{
			At:  at,
			New: func() job.Instance { return job.NewRun(p) },
			Max: plan.MaxRestarts,
		}
	}
	return spec
}

// recoverRecords rebuilds the daemon's state from a parsed journal.
func (s *Server) recoverRecords(records []persist.Record) error {
	lg, err := parseJournal(records)
	if err != nil {
		return err
	}
	if got, want := lg.header, s.headerRecord(); got != want {
		return fmt.Errorf("journal written under a different configuration:\n  journal: %+v\n  daemon:  %+v",
			got, want)
	}
	// Cluster-shard journals pin each executed quantum's capacity share;
	// those shares must be back in the table before any boundary replays,
	// or the replay would run under the wrong machine size.
	if len(lg.shares) > 0 {
		t, ok := s.capacity.(*ShareTable)
		if !ok {
			return fmt.Errorf("journal carries cluster capacity shares; boot it behind the cluster layer (abgd -cluster)")
		}
		for b, share := range lg.shares {
			t.Set(b+1, share)
		}
	}
	l64 := int64(s.cfg.L)

	// 1. Restore the snapshot, if any: fold the chain of snapshot records
	// into the full snapshot, rebuild a fresh spec for every job the
	// snapshotted engine held (ids 0..snapAdmits-1) and load the cursors
	// onto them.
	if lg.snap != nil {
		full, err := sim.FoldSnapshots(lg.chain)
		if err != nil {
			return err
		}
		specs := make([]sim.JobSpec, lg.snapAdmits)
		for id := 0; id < lg.snapAdmits; id++ {
			sub, idx, err := lg.submitFor(id)
			if err != nil {
				return err
			}
			specs[id] = replaySpec(sub, idx, id, s.cfg.L,
				int64(lg.admitted[id])*l64, s.plan, s.sched, s.bus)
		}
		eng, err := sim.RestoreEngine(sim.MultiConfig{
			P: s.cfg.P, L: s.cfg.L,
			Allocator: alloc.DynamicEquiPartition{},
			MaxQuanta: s.cfg.MaxQuanta,
			Obs:       s.bus,
			Capacity:  s.capacity,
			// The ring is observational and excluded from snapshots; the
			// recovered engine records samples for the quanta it replays.
			TimelineRing: s.cfg.TimelineRing,
			StepWorkers:  s.cfg.StepWorkers,
		}, full, specs)
		if err != nil {
			return err
		}
		s.eng = eng
		// The next delta continues the chain from the jobs unfinished at
		// the last record. It must be read now, before the tail replays:
		// a job that finishes during the replay is in no record as done.
		s.snapFrom = eng.FirstUnfinished(0)
		s.hub.SetSeq(0, lg.snap.sseSeq)
		s.lastSnapQ = lg.snap.quanta
		s.lastSnapSeq = lg.snap.sseSeq
		s.recovery.SnapshotQuantum = lg.snap.quanta
		s.recovery.SnapshotBoundary = lg.snap.boundary
		s.recovery.ReplayedRecords = len(records) - lg.snapRecords
	} else {
		s.recovery.ReplayedRecords = len(records) - 1 // everything after the header
	}

	// 2. Prime the invariant checker with the restored jobs' mid-run state:
	// it never saw the pre-snapshot events, so deprivation and attempt-work
	// accounting must be seeded, not inferred.
	if s.checker != nil {
		for id, rs := range s.eng.ResumeStates() {
			if rs.Started && !rs.Done {
				s.checker.Resume(id, rs.Deprived, rs.AttemptWork)
			}
		}
	}

	// 3. Re-submit the jobs admitted after the snapshot. Release pins each
	// job to its journaled admission boundary, so the replay below admits
	// it exactly where the crashed run did.
	maxBoundary := -1
	for id := s.eng.NumJobs(); id < len(lg.admitted); id++ {
		sub, idx, err := lg.submitFor(id)
		if err != nil {
			return err
		}
		b := lg.admitted[id]
		got, err := s.eng.Submit(replaySpec(sub, idx, id, s.cfg.L,
			int64(b)*l64, s.plan, s.sched, s.bus))
		if err != nil {
			return err
		}
		if got != id {
			return fmt.Errorf("replay id skew: engine assigned %d, journal has %d", got, id)
		}
		if b > maxBoundary {
			maxBoundary = b
		}
	}

	// 4. Replay the engine across the journaled boundaries. The re-executed
	// quanta re-emit the original events under the original SSE ids —
	// determinism makes the replay indistinguishable from the run it
	// reconstructs. Step records extend the replay past the last admission
	// to the last quantum the writer provably executed; on journals that
	// predate step records (maxStep == -1) any further quanta replay
	// themselves after boot, the same way.
	if lg.maxStep > maxBoundary {
		maxBoundary = lg.maxStep
	}
	for s.eng.Boundary() <= maxBoundary {
		if _, err := s.eng.Step(); err != nil {
			return fmt.Errorf("replay boundary %d: %w", s.eng.Boundary(), err)
		}
		s.recovery.ReplayedBoundaries++
	}
	if t, ok := s.capacity.(*ShareTable); ok {
		t.PruneBelow(s.eng.Boundary())
	}
	s.recovery.ResumedJobs = s.eng.NumJobs()

	// 5. Re-queue acked submissions that were never admitted, and restore
	// the idempotency-key table so retried submissions keep deduplicating.
	for _, sub := range lg.submits {
		ids := make([]int, sub.count)
		for i := range ids {
			ids[i] = sub.firstID + i
		}
		if sub.key != "" {
			s.keys[sub.key] = ids
		}
		for i, id := range ids {
			if _, admitted := lg.admitted[id]; !admitted {
				s.queue = append(s.queue, pendingJob{
					id:      id,
					name:    sub.req.jobName(i, id),
					profile: sub.req.BuildProfile(i, s.cfg.L),
				})
				s.recovery.RequeuedJobs++
			}
		}
	}
	s.nextID = lg.nextID

	// 6. A journaled drain survives the crash: finish it.
	if lg.drained {
		s.draining.Store(true)
	}

	// 7. A follower keeps the parsed submit/admit bookkeeping: the live
	// stream continues applying records incrementally from exactly here.
	if s.isFollower() {
		s.repl = replState{
			headerSeen: true,
			submits:    lg.submits,
			admitted:   len(lg.admitted),
			maxStep:    lg.maxStep,
		}
	}
	return nil
}

// ReferenceResult replays a journal offline, from boundary zero and without
// any snapshot, and returns the final status of every admitted job. It is
// the crash soak's ground truth: a daemon that crash-recovered any number
// of times must report job results DeepEqual to this uninterrupted
// reference, because both are the same deterministic function of the same
// journal. The configuration is taken from the journal's header record.
func ReferenceResult(dir string) ([]JobStatusDTO, error) {
	scan, err := persist.ScanFile(filepath.Join(dir, persist.JournalFile))
	if err != nil {
		return nil, fmt.Errorf("server: reference: %w", err)
	}
	if len(scan.Records) == 0 {
		return nil, fmt.Errorf("server: reference: empty journal in %s", dir)
	}
	lg, err := parseJournal(scan.Records)
	if err != nil {
		return nil, fmt.Errorf("server: reference: %w", err)
	}
	h := lg.header
	plan, err := fault.ParseSpec(h.faultSpec, h.p)
	if err != nil {
		return nil, fmt.Errorf("server: reference: %w", err)
	}
	var scheduler core.Scheduler
	if h.scheduler == "abg" {
		scheduler = core.NewABG(h.r)
	} else {
		scheduler = core.NewAGreedy(h.rho, h.delta)
	}
	capacity := plan.Capacity
	if len(lg.shares) > 0 {
		// A cluster shard's journal: replay each quantum under the share the
		// cluster pinned for it, exactly as the shard executed it.
		t := NewShareTable(h.p, plan.Capacity)
		for b, share := range lg.shares {
			t.Set(b+1, share)
		}
		capacity = t
	}
	eng, err := sim.NewEngine(sim.MultiConfig{
		P: h.p, L: h.l,
		Allocator: alloc.DynamicEquiPartition{},
		MaxQuanta: math.MaxInt - 1,
		Capacity:  capacity,
	})
	if err != nil {
		return nil, err
	}
	for id := 0; id < len(lg.admitted); id++ {
		sub, idx, err := lg.submitFor(id)
		if err != nil {
			return nil, fmt.Errorf("server: reference: %w", err)
		}
		got, err := eng.Submit(replaySpec(sub, idx, id, h.l,
			int64(lg.admitted[id])*int64(h.l), plan, scheduler, nil))
		if err != nil {
			return nil, err
		}
		if got != id {
			return nil, fmt.Errorf("server: reference: id skew at job %d", id)
		}
	}
	for !eng.Done() {
		if _, err := eng.Step(); err != nil {
			return nil, fmt.Errorf("server: reference: %w", err)
		}
	}
	sts := eng.Statuses()
	out := make([]JobStatusDTO, len(sts))
	for i, st := range sts {
		out[i] = statusDTO(st)
	}
	return out, nil
}
