package server

import (
	"fmt"
	"net/http"
	"path/filepath"

	"abg/internal/alloc"
	"abg/internal/core"
	"abg/internal/fault"
	"abg/internal/persist"
	"abg/internal/sim"
)

// Crash recovery. The journal records every externally-sourced decision
// (see journal.go) and the engine is bit-identically replay-deterministic,
// so recovery has no record reader of its own: it restores the last
// snapshot, then applies every later record through applyLocked, the same
// applier a follower runs on shipped records (replication.go). The tail's
// admit and step records re-admit the jobs and re-execute the quanta the
// crashed run journaled, re-emitting the same events under the same SSE
// ids; its submit records re-queue the acked jobs still awaiting
// admission. The daemon then resumes as if the crash were a pause: same job
// ids, same completion times, same event stream.

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
	// ResumedJobs is the number of jobs the engine holds once the journal
	// is replayed: every admitted job, finished or not (a drained journal
	// resumes all of its jobs and none of them runs again). RequeuedJobs is
	// the acked jobs put back on the admission queue; the two add up to
	// every job the journal acked.
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

// journalLog is the decoded, cross-checked content of a journal, or of the
// prefix of one that recovery restores from.
type journalLog struct {
	header   headerRecord
	submits  []submitRecord // in journal order; ids ascend densely from 0
	admitted []int          // admission boundary of each job id, ids dense from 0
	// snap is the last snapshot, and chain every snapshot record's engine
	// blob in journal order: the fold of chain is the full engine snapshot
	// as of snap.
	snap  *snapshotRecord
	chain [][]byte
	// shares maps step boundaries to the cluster-assigned capacity shares
	// their quanta executed under (cluster-shard journals only; see
	// stepRecord).
	shares  map[int]int
	drained bool
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
	lg := &journalLog{header: h}
	nextID, lastStep := 0, -1
	for i, rec := range records[1:] {
		switch rec.Kind {
		case persist.KindHeader:
			return nil, fmt.Errorf("record %d: duplicate header", i+1)
		case persist.KindSubmit, persist.KindSubmitV1:
			sub, err := decodeSubmit(rec.Kind, rec.Body)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
			if sub.firstID != nextID {
				return nil, fmt.Errorf("record %d: submit ids start at %d, expected %d",
					i+1, sub.firstID, nextID)
			}
			nextID = sub.firstID + sub.req.Count
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
				if id >= nextID {
					return nil, fmt.Errorf("record %d: admit id %d was never submitted", i+1, id)
				}
				lg.admitted = append(lg.admitted, adm.boundary)
			}
		case persist.KindDrain:
			lg.drained = true
		case persist.KindStep:
			st, err := decodeStep(rec.Body)
			if err != nil {
				return nil, fmt.Errorf("record %d: %w", i+1, err)
			}
			if st.boundary < lastStep {
				return nil, fmt.Errorf("record %d: step boundary %d below previous %d",
					i+1, st.boundary, lastStep)
			}
			lastStep = st.boundary
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

// recoverRecords rebuilds the daemon's state from the journal's clean
// records. Only the prefix up to the last snapshot record is parsed: it
// seeds the queue, idempotency keys and drain flag, and its snapshot chain
// restores the engine. Every later record then goes through applyLocked,
// the applier a follower runs on each shipped record, minus the epoch fence
// and the journal append (the record is already on disk).
func (s *Server) recoverRecords(records []persist.Record) error {
	cut := 1 // the header alone when the journal holds no snapshot
	for i := len(records) - 1; i > 0; i-- {
		if records[i].Kind == persist.KindSnapshot {
			cut = i + 1
			break
		}
	}
	lg, err := parseJournal(records[:cut])
	if err != nil {
		return err
	}
	if err := s.applyHeaderLocked(records[0].Body); err != nil {
		return err
	}
	// The snapshotted engine holds exactly the jobs admitted before it; the
	// prefix's later submissions are still queued. Profiles are rebuilt only
	// for the queued jobs and for those the folded snapshot records as
	// unfinished: RestoreEngine takes a done job's outcome, name included,
	// from the snapshot, and the release and every cursor of the others.
	var full []byte
	var done []bool
	if lg.snap != nil {
		if full, done, err = sim.FoldSnapshots(lg.chain); err != nil {
			return err
		}
	}
	n := len(lg.admitted)
	if len(done) != n {
		return fmt.Errorf("snapshot holds %d jobs, the journal admitted %d before it", len(done), n)
	}
	keyed := 0
	for _, sub := range lg.submits {
		if sub.req.Key != "" {
			keyed++
		}
	}
	s.keys = make(map[string][]int, keyed)
	specs := make([]sim.JobSpec, n)
	for _, sub := range lg.submits {
		for i, id := range s.promiseLocked(sub.req) {
			if id < n && done[id] {
				continue
			}
			p := pendingJob{id: id, name: sub.req.jobName(i, id), profile: sub.req.BuildProfile(i, s.cfg.L)}
			if id < n {
				specs[id] = jobSpec(p, 0, s.plan, s.sched, s.bus)
			} else {
				s.queue = append(s.queue, p)
			}
		}
	}
	if lg.snap != nil {
		if s.eng, err = sim.RestoreEngine(s.engineConfig(), full, specs); err != nil {
			return err
		}
		// The next delta continues the chain from the jobs unfinished at the
		// snapshot. It must be read now, before the tail replays: a job that
		// finishes during the replay is in no record as done.
		s.snapFrom = s.eng.FirstUnfinished(0)
		s.hub.SetSeq(0, lg.snap.sseSeq)
		s.lastSnapQ = lg.snap.quanta
		s.lastSnapSeq = lg.snap.sseSeq
		s.recovery.SnapshotQuantum = lg.snap.quanta
		s.recovery.SnapshotBoundary = lg.snap.boundary
		// Prime the invariant checker with the restored jobs' mid-run state:
		// it never saw the pre-snapshot events, so deprivation and
		// attempt-work accounting must be seeded, not inferred.
		if s.checker != nil {
			for id, rs := range s.eng.ResumeStates() {
				if rs.Started && !rs.Done {
					s.checker.Resume(id, rs.Deprived, rs.AttemptWork)
				}
			}
		}
	}
	if lg.drained {
		s.draining.Store(true)
	}

	start := s.eng.Boundary()
	for i, rec := range records[cut:] {
		if err := s.applyLocked(rec); err != nil {
			return fmt.Errorf("record %d: %w", cut+i, err)
		}
	}
	s.recovery.ReplayedRecords = len(records) - cut
	s.recovery.ReplayedBoundaries = s.eng.Boundary() - start
	s.recovery.ResumedJobs = s.eng.NumJobs()
	s.recovery.RequeuedJobs = len(s.queue)

	// The writer may have died between a step record and the snapshot due
	// after it. A leader writes that snapshot now, at the quantum it was due,
	// so every later snapshot lands where the uncrashed run put it; a
	// follower's journal holds only the leader's records.
	if !s.isFollower() {
		s.maybeSnapshotLocked()
	}
	return s.fatal
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
		MaxQuanta: engineMaxQuanta,
		Capacity:  capacity,
	})
	if err != nil {
		return nil, err
	}
	for _, sub := range lg.submits {
		for i := 0; i < sub.req.Count && sub.firstID+i < len(lg.admitted); i++ {
			id := sub.firstID + i
			p := pendingJob{id: id, name: sub.req.jobName(i, id), profile: sub.req.BuildProfile(i, h.l)}
			got, err := eng.Submit(jobSpec(p, int64(lg.admitted[id])*int64(h.l), plan, scheduler, nil))
			if err != nil {
				return nil, err
			}
			if got != id {
				return nil, fmt.Errorf("server: reference: id skew at job %d", id)
			}
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
