package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"abg/internal/persist"
	"abg/internal/sim"
)

// serveSequential submits n fullPar jobs with ids first.. through the
// admission path, each once the previous one has completed, so one job is
// in flight at a time — the shape under which a full snapshot per record
// would grow with every job served.
func serveSequential(t *testing.T, s *Server, first, n int) {
	t.Helper()
	for id := first; id < first+n; id++ {
		req := JobRequest{Kind: "fullPar", Width: 2 + id%3, Quanta: 2 + id%4,
			Name: fmt.Sprintf("seq-%d", id), Key: fmt.Sprintf("seq-key-%d", id)}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		ack, _, err := s.SubmitLocal(req, "")
		if err != nil {
			t.Fatalf("submit %d: %v", id, err)
		}
		if len(ack.IDs) != 1 || ack.IDs[0] != id {
			t.Fatalf("submit %d: ids %v", id, ack.IDs)
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.Snapshot().Completed <= id {
			if time.Now().After(deadline) {
				t.Fatalf("job %d did not complete", id)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// snapshotRecords returns the snapshot records of dir's journal, decoded.
func snapshotRecords(t *testing.T, dir string) []snapshotRecord {
	t.Helper()
	scan, err := persist.ScanFile(filepath.Join(dir, persist.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	var out []snapshotRecord
	for _, r := range scan.Records {
		if r.Kind == persist.KindSnapshot {
			snap, err := decodeSnapshot(r.Body)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, snap)
		}
	}
	return out
}

// seqCfg is a virtual-clock journaled daemon snapshotting every 4 quanta.
func seqCfg(dir string) Config {
	return Config{
		P: 16, L: 50, Clock: ClockVirtual, QueueLimit: 100, Seed: 7,
		JournalDir: dir, SnapshotEvery: 4,
		FaultSpec: "drop=0.2,restart=0.2,restartat=1,maxrestarts=1,cap=churn:0.5:4,seed=3",
	}
}

// TestSnapshotRecordsStayFlat is the journal-size guard: over 300
// sequential jobs, the last snapshot record is at most twice the largest of
// the first few. A record holding every job ever served grows linearly
// instead.
func TestSnapshotRecordsStayFlat(t *testing.T) {
	dir := t.TempDir()
	cfg := seqCfg(dir)
	cfg.FaultSpec = ""
	s, _ := startCrashable(t, cfg)
	serveSequential(t, s, 0, 300)
	s.Drain()
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	snaps := snapshotRecords(t, dir)
	if len(snaps) < 100 {
		t.Fatalf("only %d snapshot records over 300 jobs", len(snaps))
	}
	early := 0
	for _, sn := range snaps[:4] {
		early = max(early, len(sn.engine))
	}
	if last := len(snaps[len(snaps)-1].engine); last > 2*early {
		t.Fatalf("last snapshot record holds %d engine bytes, early ones up to %d: records grow with jobs served",
			last, early)
	}
}

// snapshotVersion returns an engine snapshot blob's version byte, which
// follows the 7-byte magic.
func snapshotVersion(blob []byte) byte { return blob[len("ABGSNAP")] }

// readChainFixture reads a chain of engine snapshot blobs, framed as
// length-prefixed byte fields (see testdata/README.md).
func readChainFixture(t *testing.T, name string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var chain [][]byte
	for d := persist.NewDec(data); d.Len() > 0; {
		chain = append(chain, d.BytesField())
		if err := d.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return chain
}

// TestRecoveryFoldsFullThenDeltaChain recovers a journal written before
// delta snapshots and extended after them: the first half of a real run's
// snapshot records is rewritten as the version-1 full snapshots they stand
// for, as the engine wrote them before snapshot version 3
// (testdata/seq-v1.chain); the rest stay version-3 deltas. Each version-1
// blob must fold to the same bytes as the run's own chain up to its record.
// The recovered daemon, in which a job finished during the tail replay,
// serves more jobs under more deltas and crashes again; the second recovery
// folds the whole mixed chain. The final results must DeepEqual the
// uninterrupted reference replay.
func TestRecoveryFoldsFullThenDeltaChain(t *testing.T) {
	dir := t.TempDir()
	cfg := seqCfg(dir)
	s1, _ := startCrashable(t, cfg)
	serveSequential(t, s1, 0, 12)
	crash(t, s1)

	// Rewrite the journal into a second directory, record by record.
	scan, err := persist.ScanFile(filepath.Join(dir, persist.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	v1 := readChainFixture(t, "seq-v1.chain")
	if nsnaps := len(snapshotRecords(t, dir)); nsnaps != 2*len(v1) {
		t.Fatalf("%d snapshot records for %d version-1 blobs: the run no longer matches the fixture", nsnaps, len(v1))
	}
	dir2 := t.TempDir()
	j, _, err := persist.Open(dir2, persist.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	var chain [][]byte
	full, delta := 0, 0
	for _, r := range scan.Records {
		if r.Kind == persist.KindSnapshot {
			snap, err := decodeSnapshot(r.Body)
			if err != nil {
				t.Fatal(err)
			}
			chain = append(chain, snap.engine)
			folded, _, err := sim.FoldSnapshots(chain)
			if err != nil {
				t.Fatal(err)
			}
			if k := len(chain) - 1; k < len(v1) {
				if snapshotVersion(v1[k]) != 1 {
					t.Fatalf("seq-v1.chain blob %d is version %d", k, snapshotVersion(v1[k]))
				}
				if f, _, err := sim.FoldSnapshots(v1[k : k+1]); err != nil || !bytes.Equal(f, folded) {
					t.Fatalf("snapshot record %d: the version-1 blob folds to %d bytes (%v), the run's chain to %d",
						k, len(f), err, len(folded))
				}
				snap.engine = v1[k]
				r.Body = encodeSnapshot(snap)
				full++
			} else if len(snap.engine) < len(folded) {
				delta++ // a strict delta: it leaves finished jobs out
			}
		}
		if err := j.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if full == 0 || delta == 0 {
		t.Fatalf("rewritten journal has %d full and %d strict delta records, want both", full, delta)
	}

	cfg.JournalDir = dir2
	s2, base2 := startCrashable(t, cfg)
	var rec RecoveryDTO
	getJSON(t, base2+"/api/v1/recovery", &rec)
	if !rec.Recovered || rec.SnapshotQuantum == 0 {
		t.Fatalf("recovery = %+v, want a restored snapshot", rec)
	}
	// The watermark comes from the restored engine, before the tail
	// replayed: here a job finished in the tail, so it lags the engine.
	s2.mu.Lock()
	from, after := s2.snapFrom, s2.eng.FirstUnfinished(0)
	s2.mu.Unlock()
	if from >= after {
		t.Fatalf("watermark %d, first unfinished job after the replay %d: no job finished in the tail", from, after)
	}
	serveSequential(t, s2, 12, 4)
	crash(t, s2)

	s3, base3 := startCrashable(t, cfg)
	getJSON(t, base3+"/api/v1/recovery", &rec)
	if !rec.Recovered {
		t.Fatalf("second recovery = %+v", rec)
	}
	serveSequential(t, s3, 16, 2)
	s3.Drain()
	if err := s3.Wait(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	live := liveStatuses(s3)
	ref, err := ReferenceResult(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 18 || !reflect.DeepEqual(live, ref) {
		t.Fatalf("recovered run diverged from the reference:\n live %+v\n ref  %+v", live, ref)
	}
}

// TestPromotedFollowerContinuesDeltaChain: a follower advances the delta
// watermark at every applied snapshot record, so it holds the leader's
// watermark and, once promoted, writes the next delta of the same chain. A
// restart on the promoted journal folds the leader's and the successor's
// records together.
func TestPromotedFollowerContinuesDeltaChain(t *testing.T) {
	cfg := seqCfg(t.TempDir())
	s1, leaderBase := startCrashable(t, cfg)
	s2, fBase, fDir := startFollower(t, seqCfg(""), leaderBase)
	serveSequential(t, s1, 0, 8)
	waitReplBytes(t, fBase, s1.journal.Size())
	s1.mu.Lock()
	leaderFrom := s1.snapFrom
	s1.mu.Unlock()
	s2.mu.Lock()
	followerFrom := s2.snapFrom
	s2.mu.Unlock()
	if leaderFrom == 0 || followerFrom != leaderFrom {
		t.Fatalf("follower watermark %d, leader %d: want equal and past job 0", followerFrom, leaderFrom)
	}
	crash(t, s1)

	resp, err := http.Post(fBase+"/api/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote = %d", resp.StatusCode)
	}
	serveSequential(t, s2, 8, 4)
	crash(t, s2)

	rcfg := seqCfg(fDir)
	s3, base3 := startCrashable(t, rcfg)
	var rec RecoveryDTO
	getJSON(t, base3+"/api/v1/recovery", &rec)
	if !rec.Recovered || rec.SnapshotQuantum == 0 {
		t.Fatalf("recovery = %+v, want a restored snapshot", rec)
	}
	serveSequential(t, s3, 12, 2)
	s3.Drain()
	if err := s3.Wait(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ref, err := ReferenceResult(fDir)
	if err != nil {
		t.Fatal(err)
	}
	if live := liveStatuses(s3); len(ref) != 14 || !reflect.DeepEqual(live, ref) {
		t.Fatalf("recovered run diverged from the reference:\n live %+v\n ref  %+v", live, ref)
	}
}

// TestRecoveryFromPreV3Journal recovers daemons from journals written and
// cut by a daemon of snapshot version 2 (testdata/v2-clean.wal and
// v2-faulted.wal): every snapshot record is a version-2 delta, and at the
// cut some jobs are done, one is running and later submissions are still
// queued. The recovered daemon must run on to ReferenceResult's statuses;
// it then serves more jobs under version-3 deltas, crashes, and recovers
// from the mixed chain to the reference again.
func TestRecoveryFromPreV3Journal(t *testing.T) {
	for _, tc := range []struct{ name, fault string }{
		{"clean", ""},
		{"faulted", "restart=0.3,restartat=1,maxrestarts=2,drop=0.2,cap=churn:0.5:4,seed=5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			wal, err := os.ReadFile(filepath.Join("testdata", "v2-"+tc.name+".wal"))
			if err != nil {
				t.Fatal(err)
			}
			lg, err := parseJournal(persist.ScanBytes(wal).Records)
			if err != nil {
				t.Fatal(err)
			}
			for i, blob := range lg.chain {
				if v := snapshotVersion(blob); v != 2 {
					t.Fatalf("fixture snapshot record %d is version %d", i, v)
				}
			}
			_, done, err := sim.FoldSnapshots(lg.chain)
			if err != nil {
				t.Fatal(err)
			}
			ndone, submitted := 0, 0
			for _, d := range done {
				if d {
					ndone++
				}
			}
			for _, sub := range lg.submits {
				submitted += sub.req.Count
			}
			if ndone == 0 || ndone == len(done) || submitted == len(lg.admitted) {
				t.Fatalf("fixture cut: %d of %d snapshotted jobs done, %d of %d submitted admitted; want some done, some not, some queued",
					ndone, len(done), len(lg.admitted), submitted)
			}

			cfg := replCfg(t.TempDir(), tc.fault)
			cfg.SnapshotEvery = 3
			if err := os.WriteFile(filepath.Join(cfg.JournalDir, persist.JournalFile), wal, 0o666); err != nil {
				t.Fatal(err)
			}
			s2, base := startCrashable(t, cfg)
			var rec RecoveryDTO
			getJSON(t, base+"/api/v1/recovery", &rec)
			if !rec.Recovered || rec.SnapshotQuantum == 0 || rec.RequeuedJobs == 0 {
				t.Fatalf("recovery = %+v, want a restored snapshot and requeued jobs", rec)
			}
			for deadline := time.Now().Add(10 * time.Second); s2.NeedsSteps(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("recovered daemon never ran out of work")
				}
			}
			ref, err := ReferenceResult(cfg.JournalDir)
			if err != nil {
				t.Fatal(err)
			}
			if live := s2.JobStatuses(); len(ref) != submitted || !reflect.DeepEqual(live, ref) {
				t.Fatalf("recovered run diverged from the reference:\n live %+v\n ref  %+v", live, ref)
			}
			serveSequential(t, s2, submitted, 4)
			crash(t, s2)
			versions := map[byte]int{}
			for _, snap := range snapshotRecords(t, cfg.JournalDir) {
				versions[snapshotVersion(snap.engine)]++
			}
			if versions[2] != len(lg.chain) || versions[3] == 0 || len(versions) != 2 {
				t.Fatalf("snapshot records by version %v, want the fixture's %d of version 2 and some of version 3",
					versions, len(lg.chain))
			}

			s3, _ := startCrashable(t, cfg)
			serveSequential(t, s3, submitted+4, 2)
			live := finishRun(t, s3)
			if ref, err = ReferenceResult(cfg.JournalDir); err != nil {
				t.Fatal(err)
			}
			if len(ref) != submitted+6 || !reflect.DeepEqual(live, ref) {
				t.Fatalf("run recovered from the mixed chain diverged from the reference:\n live %+v\n ref  %+v", live, ref)
			}
		})
	}
}
