package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"abg/internal/persist"
)

// startCrashable boots a journaled server whose lifecycle the test manages
// explicitly: no automatic drain or Wait, so the test can crash it. Any reqs
// are acked before the quantum clock starts, which makes a virtual-clock
// run a deterministic function of cfg and reqs.
func startCrashable(t *testing.T, cfg Config, reqs ...JobRequest) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, req := range reqs {
		if err := req.Normalize(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, _, err := s.SubmitLocal(req, ""); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(cancel)
	return s, "http://" + s.Addr()
}

// crash simulates SIGKILL on an in-process daemon: the driver loop stops
// dead (no drain, no final events), client connections are severed, and the
// journal file is released — exactly the state a killed process leaves on
// disk, since every append already went straight to the file.
func crash(t *testing.T, s *Server) {
	t.Helper()
	s.killed.Store(true)
	s.notify()
	if s.isFollower() {
		s.tailer.Stop() // a follower's driver is its tail loop
	}
	select {
	case <-s.stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("driver did not stop after kill")
	}
	s.hsrv.Close()
	s.mu.Lock()
	if s.journal != nil {
		s.journal.Close()
	}
	s.mu.Unlock()
}

// submitKeyed posts one keyed batch job and asserts the acked id is dense.
func submitKeyed(t *testing.T, base string, i int) {
	t.Helper()
	code, ack, bad := postJobs(t, base, JobRequest{
		Kind: "batch", Name: fmt.Sprintf("rec-%d", i),
		Seed: uint64(100 + i), Key: fmt.Sprintf("rec-key-%d", i),
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit %d: status %d (%q)", i, code, bad.Error)
	}
	if len(ack.IDs) != 1 || ack.IDs[0] != i {
		t.Fatalf("submit %d: ids %v, want [%d]", i, ack.IDs, i)
	}
}

// waitQuanta polls until the engine has executed at least q quanta or every
// submitted job completed (idle — no more quanta will come).
func waitQuanta(t *testing.T, s *Server, q, submitted int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Snapshot()
		if st.QuantaElapsed >= q || (submitted > 0 && st.Completed >= submitted) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stuck at quantum %d (want %d, %d/%d done)",
				st.QuantaElapsed, q, st.Completed, submitted)
		}
		time.Sleep(time.Millisecond)
	}
}

// liveStatuses reads the final per-job statuses straight off the engine
// (valid after Wait: the driver is parked).
func liveStatuses(s *Server) []JobStatusDTO {
	sts := s.eng.Statuses()
	out := make([]JobStatusDTO, len(sts))
	for i, st := range sts {
		out[i] = statusDTO(st)
	}
	return out
}

// crashCfg is the shared shape of the recovery tests: a small machine on a
// fast wall clock (so crashes land mid-run), snapshotting aggressively.
func crashCfg(dir, faultSpec string) Config {
	return Config{
		P: 16, L: 50, Scheduler: "abg",
		Clock: ClockWall, Tick: time.Millisecond,
		QueueLimit: 100, Seed: 7,
		JournalDir: dir, SnapshotEvery: 4,
		FaultSpec: faultSpec,
	}
}

// TestRecoveryMatchesReference crashes a journaled daemon twice mid-run —
// once per fault-spec clause, plus fault-free and the A-Greedy scheduler —
// and checks the final per-job results equal ReferenceResult's
// uninterrupted replay of the same journal.
func TestRecoveryMatchesReference(t *testing.T) {
	specs := []struct{ name, fault, sched string }{
		{"nofault", "", "abg"},
		{"agreedy", "", "agreedy"},
		{"drop", "drop=0.3,seed=5", "abg"},
		{"delay", "delay=2:0.3,seed=5", "abg"},
		{"dup", "dup=0.3,seed=5", "abg"},
		{"noise", "noise=0.5,seed=5", "abg"},
		{"restart", "restart=0.3,restartat=1,maxrestarts=2,seed=5", "abg"},
		{"churn", "cap=churn:0.5:4,seed=5", "abg"},
	}
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cfg := crashCfg(dir, tc.fault)
			cfg.Scheduler = tc.sched

			s1, base := startCrashable(t, cfg)
			for i := 0; i < 4; i++ {
				submitKeyed(t, base, i)
			}
			waitQuanta(t, s1, 3, 4)
			crash(t, s1)

			s2, base2 := startCrashable(t, cfg)
			var rec RecoveryDTO
			getJSON(t, base2+"/api/v1/recovery", &rec)
			if !rec.Recovered {
				t.Fatalf("first restart did not recover: %+v", rec)
			}
			for i := 4; i < 8; i++ {
				submitKeyed(t, base2, i)
			}
			waitQuanta(t, s2, s2.Snapshot().QuantaElapsed+3, 8)
			crash(t, s2)

			s3, base3 := startCrashable(t, cfg)
			getJSON(t, base3+"/api/v1/recovery", &rec)
			if !rec.Recovered {
				t.Fatalf("second restart did not recover: %+v", rec)
			}
			for i := 8; i < 10; i++ {
				submitKeyed(t, base3, i)
			}
			s3.Drain()
			if err := s3.Wait(); err != nil {
				t.Fatalf("final drain: %v", err)
			}

			live := liveStatuses(s3)
			ref, err := ReferenceResult(dir)
			if err != nil {
				t.Fatalf("ReferenceResult: %v", err)
			}
			if len(live) != 10 || len(ref) != 10 {
				t.Fatalf("job counts: live %d, reference %d, want 10", len(live), len(ref))
			}
			for i := range ref {
				if !reflect.DeepEqual(live[i], ref[i]) {
					t.Errorf("job %d diverged:\n live %+v\n ref  %+v", i, live[i], ref[i])
				}
			}
		})
	}
}

// TestRecoveryIdempotentResubmit: a submission retried after a crash (same
// idempotency key) must answer with the original ids instead of admitting a
// second copy, and fresh submissions must continue the dense id sequence.
func TestRecoveryIdempotentResubmit(t *testing.T) {
	dir := t.TempDir()
	cfg := crashCfg(dir, "")

	s1, base := startCrashable(t, cfg)
	for i := 0; i < 3; i++ {
		submitKeyed(t, base, i)
	}
	waitQuanta(t, s1, 2, 3)
	crash(t, s1)

	_, base2 := startCrashable(t, cfg)
	req := JobRequest{Kind: "batch", Name: "rec-1", Seed: 101, Key: "rec-key-1"}
	code, ack, bad := postJobs(t, base2, req)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d (%q), want 200 duplicate", code, bad.Error)
	}
	if ack.State != "duplicate" || len(ack.IDs) != 1 || ack.IDs[0] != 1 {
		t.Fatalf("resubmit: got %+v, want duplicate of id 1", ack)
	}
	submitKeyed(t, base2, 3) // fresh key continues at the next dense id
}

// TestRecoveryTornTail: garbage appended to the journal (a torn write from
// the crash) is truncated at boot, and recovery proceeds from the clean
// prefix.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := crashCfg(dir, "")

	s1, base := startCrashable(t, cfg)
	for i := 0; i < 3; i++ {
		submitKeyed(t, base, i)
	}
	waitQuanta(t, s1, 3, 3)
	crash(t, s1)

	// A torn record: plausible length prefix, missing most of its payload.
	path := filepath.Join(dir, persist.JournalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if _, err := f.Write([]byte{40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 2, 7}); err != nil {
		t.Fatalf("append torn tail: %v", err)
	}
	f.Close()

	s2, base2 := startCrashable(t, cfg)
	var rec RecoveryDTO
	getJSON(t, base2+"/api/v1/recovery", &rec)
	if !rec.Recovered || rec.TruncatedBytes != 10 {
		t.Fatalf("recovery = %+v, want recovered with 10 truncated bytes", rec)
	}
	s2.Drain()
	if err := s2.Wait(); err != nil {
		t.Fatalf("drain after torn-tail recovery: %v", err)
	}
	live := liveStatuses(s2)
	ref, err := ReferenceResult(dir)
	if err != nil {
		t.Fatalf("ReferenceResult: %v", err)
	}
	if !reflect.DeepEqual(live, ref) {
		t.Fatalf("torn-tail recovery diverged:\n live %+v\n ref  %+v", live, ref)
	}
}

// finishRun waits until a virtual-clock daemon has run out of work, drains
// it and returns the final job statuses.
func finishRun(t *testing.T, s *Server) []JobStatusDTO {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.NeedsSteps() {
		if time.Now().After(deadline) {
			t.Fatal("daemon never ran out of work")
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	if err := s.Wait(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return liveStatuses(s)
}

// TestRecoveryAtEveryRecordBoundary crashes a run at every record boundary:
// it cuts a finished run's journal after each record, recovers the cut on a
// fresh daemon and runs it to the end. Every recovered run must finish on
// ReferenceResult's statuses, and every cut that still holds the last
// submit record must finish on the uncut journal byte for byte: a crash
// anywhere after the last submission changes no record the run writes.
func TestRecoveryAtEveryRecordBoundary(t *testing.T) {
	reqs := []JobRequest{
		{Kind: "batch", Seed: 11, Key: "a"},
		{Kind: "fullPar", Width: 6, Quanta: 3, Key: "b"},
		{Kind: "batch", Seed: 12, Count: 2, Key: "c"},
	}
	for _, tc := range []struct{ name, fault string }{
		{"clean", ""},
		{"faulted", "restart=0.3,restartat=1,maxrestarts=2,drop=0.2,cap=churn:0.5:4,seed=5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := replCfg(t.TempDir(), tc.fault)
			cfg.SnapshotEvery = 3
			s, _ := startCrashable(t, cfg, reqs...)
			finishRun(t, s)
			full, err := os.ReadFile(filepath.Join(cfg.JournalDir, persist.JournalFile))
			if err != nil {
				t.Fatalf("read journal: %v", err)
			}
			records := persist.ScanBytes(full).Records
			lastSubmit := 0
			for i, rec := range records {
				if rec.Kind == persist.KindSubmit {
					lastSubmit = i
				}
			}

			end := 0 // byte offset after records[i]
			for i, rec := range records {
				end += 8 + 1 + 4 + len(rec.Body) // length+CRC, kind, epoch, body
				ccfg := cfg
				ccfg.JournalDir = t.TempDir()
				if err := os.WriteFile(filepath.Join(ccfg.JournalDir, persist.JournalFile),
					full[:end], 0o666); err != nil {
					t.Fatalf("write cut: %v", err)
				}
				rs, _ := startCrashable(t, ccfg)
				live := finishRun(t, rs)
				got, err := os.ReadFile(filepath.Join(ccfg.JournalDir, persist.JournalFile))
				if err != nil {
					t.Fatalf("read recovered journal: %v", err)
				}
				what := fmt.Sprintf("cut after record %d of %d (%s)",
					i, len(records), persist.KindName(rec.Kind))
				if i >= lastSubmit && !bytes.Equal(got, full) {
					t.Errorf("%s: recovered journal differs (%d bytes, uncut %d)", what, len(got), len(full))
				}
				ref, err := ReferenceResult(ccfg.JournalDir)
				if err != nil {
					t.Fatalf("%s: ReferenceResult: %v", what, err)
				}
				if !reflect.DeepEqual(live, ref) {
					t.Errorf("%s: statuses diverged from the reference:\n live %+v\n ref  %+v", what, live, ref)
				}
			}
		})
	}
}

// TestRecoveryAdmitAfterIdleGap: a wall-clock leader idles through
// boundaries it never journals, admits a job, and crashes before the admit's
// step record. Recovery steps through the idle boundaries before admitting,
// so the resumed leader journals exactly the step record the uncrashed run
// wrote next, at the admit's boundary.
func TestRecoveryAdmitAfterIdleGap(t *testing.T) {
	cfg := crashCfg(t.TempDir(), "")
	s, base := startCrashable(t, cfg)
	submitKeyed(t, base, 0)
	idleFrom := waitCompleted(t, base, 1).Boundary
	for s.Snapshot().Boundary < idleFrom+5 {
		time.Sleep(time.Millisecond)
	}
	submitKeyed(t, base, 1)
	waitCompleted(t, base, 2)
	s.Drain()
	if err := s.Wait(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	full, err := os.ReadFile(filepath.Join(cfg.JournalDir, persist.JournalFile))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	records := persist.ScanBytes(full).Records
	cut, end, admits := 0, 0, 0
	for i, rec := range records {
		end += 8 + 1 + 4 + len(rec.Body) // length+CRC, kind, epoch, body
		if rec.Kind == persist.KindAdmit {
			if admits++; admits == 2 {
				cut = i
				break
			}
		}
	}
	adm, err := decodeAdmit(records[cut].Body)
	if err != nil || adm.boundary < idleFrom+5 {
		t.Fatalf("second admit %+v (%v), want one past the idle gap from %d", adm, err, idleFrom)
	}

	ccfg := cfg
	ccfg.JournalDir = t.TempDir()
	if err := os.WriteFile(filepath.Join(ccfg.JournalDir, persist.JournalFile), full[:end], 0o666); err != nil {
		t.Fatalf("write cut: %v", err)
	}
	rs, base2 := startCrashable(t, ccfg)
	waitCompleted(t, base2, 2)
	rs.Drain()
	if err := rs.Wait(); err != nil {
		t.Fatalf("drain after recovery: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(ccfg.JournalDir, persist.JournalFile))
	if err != nil {
		t.Fatalf("read recovered journal: %v", err)
	}
	next, want := persist.ScanBytes(got).Records[cut+1], records[cut+1]
	if next.Kind != want.Kind || !bytes.Equal(next.Body, want.Body) {
		t.Fatalf("recovered leader wrote a %s record %x after the admit, the uncrashed run a %s record %x",
			persist.KindName(next.Kind), next.Body, persist.KindName(want.Kind), want.Body)
	}
}

// TestSSEReconnectWithoutLoss: a subscriber that disconnects and reconnects
// with Last-Event-ID receives exactly the events it missed, contiguously,
// with no resync marker.
func TestSSEReconnectWithoutLoss(t *testing.T) {
	_, base := startServer(t, Config{
		P: 8, L: 20, Clock: ClockVirtual, QueueLimit: 50,
	})
	client := NewClient(base)
	ctx := context.Background()

	if _, err := client.Submit(ctx, JobRequest{Kind: "batch", Seed: 1}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitCompleted(t, base, 1)

	// First connection: take the first three events, then hang up.
	var first []SSEEvent
	last := ""
	_, err := client.streamOnce(ctx, &last, func(ev SSEEvent) error {
		first = append(first, ev)
		if len(first) == 3 {
			return ErrStopStream
		}
		return nil
	})
	if err != ErrStopStream {
		t.Fatalf("first stream: %v", err)
	}
	if len(first) != 3 || first[0].ID != 1 || first[2].ID != 3 {
		t.Fatalf("first events: %+v", first)
	}

	// Reconnect where we left off: ids continue at 4 with no gap and no
	// resync, through the ring replay.
	var second []SSEEvent
	_, err = client.streamOnce(ctx, &last, func(ev SSEEvent) error {
		if ev.Type == "resync" {
			t.Errorf("unexpected resync frame at id %d", ev.ID)
		}
		second = append(second, ev)
		if len(second) == 5 {
			return ErrStopStream
		}
		return nil
	})
	if err != ErrStopStream {
		t.Fatalf("second stream: %v", err)
	}
	for i, ev := range second {
		if want := uint64(4 + i); ev.ID != want {
			t.Fatalf("reconnect event %d has id %d, want %d (events %+v)", i, ev.ID, want, second)
		}
	}
}

// TestSSEReconnectAfterEviction: with a tiny replay ring, a subscriber too
// far behind receives a resync frame telling it to refetch absolute state,
// and the stream resumes from what the ring still holds.
func TestSSEReconnectAfterEviction(t *testing.T) {
	_, base := startServer(t, Config{
		P: 8, L: 20, Clock: ClockVirtual, QueueLimit: 50, EventRing: 8,
	})
	client := NewClient(base)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := client.Submit(ctx, JobRequest{Kind: "batch", Seed: uint64(i)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st := waitCompleted(t, base, 3)
	if st.LastEventID <= 8+1 {
		t.Fatalf("only %d events; ring cannot have evicted", st.LastEventID)
	}

	// Pretend we saw event 1 and vanished: far more than 8 events later,
	// the ring has evicted our position.
	last := "1"
	var got []SSEEvent
	_, err := client.streamOnce(ctx, &last, func(ev SSEEvent) error {
		got = append(got, ev)
		if len(got) == 9 {
			return ErrStopStream
		}
		return nil
	})
	if err != ErrStopStream {
		t.Fatalf("stream: %v", err)
	}
	if got[0].Type != "resync" {
		t.Fatalf("first frame %+v, want resync", got[0])
	}
	// The resync contract: refetch absolute state, then trust the stream.
	var stNow StateDTO
	getJSON(t, base+"/api/v1/state", &stNow)
	if stNow.LastEventID < got[0].ID {
		t.Fatalf("state lastEventId %d behind resync id %d", stNow.LastEventID, got[0].ID)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Type != "" {
			t.Fatalf("frame %d: unexpected type %q", i, got[i].Type)
		}
		if got[i].ID <= got[i-1].ID && got[i-1].Type == "" {
			t.Fatalf("ids not increasing: %+v", got)
		}
	}
	// Replay resumes inside the ring: the first data frame is one of the
	// last 8 ids, nowhere near our stale position.
	if got[1].ID <= stNow.LastEventID-8 {
		t.Fatalf("replay started at %d, outside the %d-entry ring ending at %d",
			got[1].ID, 8, stNow.LastEventID)
	}
}
