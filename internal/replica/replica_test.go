package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abg/internal/persist"
)

// memApplier collects applied records in memory, tracking the byte offset the
// way the server's journal does (each record re-encodes to the same framing:
// 4-byte length, 4-byte CRC, kind byte, 4-byte epoch, body).
type memApplier struct {
	mu   sync.Mutex
	off  int64
	recs []persist.Record
	fail error // returned by Apply when set
}

func (a *memApplier) Offset() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.off
}

func (a *memApplier) Apply(rec persist.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.fail != nil {
		return a.fail
	}
	a.recs = append(a.recs, rec)
	a.off += int64(4 + 4 + 1 + 4 + len(rec.Body))
	return nil
}

func (a *memApplier) records() []persist.Record {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]persist.Record(nil), a.recs...)
}

// buildJournal writes n records through the real journal code and returns the
// file's bytes plus the decoded records.
func buildJournal(t *testing.T, n int) ([]byte, []persist.Record) {
	t.Helper()
	dir := t.TempDir()
	j, _, err := persist.Open(dir, persist.SyncNever)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < n; i++ {
		body := []byte(fmt.Sprintf("record-%d-%s", i, strings.Repeat("x", i%7)))
		if err := j.Append(persist.KindSubmit, body); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, persist.JournalFile))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	res := persist.ScanBytes(raw)
	if len(res.Records) != n || res.TruncatedBytes != 0 {
		t.Fatalf("built journal scans to %d records, %d torn bytes", len(res.Records), res.TruncatedBytes)
	}
	return raw, res.Records
}

// journalServer serves raw from ?from= like the daemon's /api/v1/journal,
// closing the stream at the end (a leader's end-of-drain EOF). cut, when
// positive, truncates each response to at most cut bytes — a connection that
// dies mid-record.
type journalServer struct {
	mu   sync.Mutex
	raw  []byte
	cut  int
	gets []int64 // from offsets seen, in order
}

func (js *journalServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	from, _ := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
	js.mu.Lock()
	js.gets = append(js.gets, from)
	raw, cut := js.raw, js.cut
	js.mu.Unlock()
	if from > int64(len(raw)) {
		http.Error(w, "divergent history", http.StatusConflict)
		return
	}
	w.Header().Set(SizeHeader, strconv.Itoa(len(raw)))
	chunk := raw[from:]
	if cut > 0 && len(chunk) > cut {
		chunk = chunk[:cut]
	}
	w.Write(chunk)
}

func (js *journalServer) offsets() []int64 {
	js.mu.Lock()
	defer js.mu.Unlock()
	return append([]int64(nil), js.gets...)
}

// tailerFor builds a fast-retrying tailer against base.
func tailerFor(base string, apply Applier) *Tailer {
	tl := NewTailer(base, apply)
	tl.BaseDelay = time.Millisecond
	tl.MaxDelay = 5 * time.Millisecond
	return tl
}

func runTailer(t *testing.T, tl *Tailer) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- tl.Run(context.Background()) }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		t.Fatal("tailer did not finish")
		return nil
	}
}

// TestTailerStreamsJournal: a full stream applies every record in order, and
// StopOnEOF ends the run cleanly at the leader's end-of-stream.
func TestTailerStreamsJournal(t *testing.T) {
	raw, want := buildJournal(t, 12)
	js := &journalServer{raw: raw}
	srv := httptest.NewServer(js)
	defer srv.Close()

	apply := &memApplier{}
	tl := tailerFor(srv.URL, apply)
	tl.StopOnEOF = func() bool { return apply.Offset() == int64(len(raw)) }
	if err := runTailer(t, tl); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := apply.records()
	if len(got) != len(want) {
		t.Fatalf("applied %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || string(got[i].Body) != string(want[i].Body) {
			t.Fatalf("record %d = %v, want %v", i, got[i], want[i])
		}
	}
	if apply.Offset() != int64(len(raw)) {
		t.Fatalf("applied offset %d, want %d", apply.Offset(), len(raw))
	}
	st := tl.Status()
	if st.LeaderBytes != int64(len(raw)) || st.LastContactUnixNano == 0 {
		t.Fatalf("status %+v", st)
	}
}

// TestTailerResumesAtAppliedOffset: when connections die mid-record, every
// reconnect must resume at a whole-record boundary (the applied offset), and
// the reassembled stream must still apply in full.
func TestTailerResumesAtAppliedOffset(t *testing.T) {
	raw, want := buildJournal(t, 10)
	js := &journalServer{raw: raw, cut: len(raw)/3 + 3} // lands mid-record
	srv := httptest.NewServer(js)
	defer srv.Close()

	apply := &memApplier{}
	tl := tailerFor(srv.URL, apply)
	tl.StopOnEOF = func() bool { return apply.Offset() == int64(len(raw)) }
	if err := runTailer(t, tl); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := len(apply.records()); got != len(want) {
		t.Fatalf("applied %d records, want %d", got, len(want))
	}
	offs := js.offsets()
	if len(offs) < 3 {
		t.Fatalf("expected several resumed connections, got offsets %v", offs)
	}
	// Each resume point must be a clean record boundary of the journal image.
	for _, off := range offs {
		res := persist.ScanBytes(raw[:off])
		if res.CleanLen != off || res.TruncatedBytes != 0 {
			t.Fatalf("resume offset %d is not a record boundary", off)
		}
	}
	if tl.Status().Reconnects < 2 {
		t.Fatalf("reconnects = %d, want >= 2", tl.Status().Reconnects)
	}
}

// TestTailerFatalOnConflict: a 409 (divergent history) must stop the tailer
// with an error, not retry forever.
func TestTailerFatalOnConflict(t *testing.T) {
	js := &journalServer{raw: nil}
	srv := httptest.NewServer(js)
	defer srv.Close()

	apply := &memApplier{off: 4096} // claims bytes the leader never wrote
	tl := tailerFor(srv.URL, apply)
	err := runTailer(t, tl)
	if err == nil || !strings.Contains(err.Error(), "rejected offset 4096") {
		t.Fatalf("Run = %v, want offset-rejected error", err)
	}
}

// TestTailerFatalOnCorruption: a bit flip in the stream is a hard stop — the
// scanner's CRC rejects it and no reconnect can make a corrupt byte valid.
func TestTailerFatalOnCorruption(t *testing.T) {
	raw, _ := buildJournal(t, 6)
	raw[len(raw)/2] ^= 0x40
	srv := httptest.NewServer(&journalServer{raw: raw})
	defer srv.Close()

	tl := tailerFor(srv.URL, &memApplier{})
	err := runTailer(t, tl)
	if err == nil {
		t.Fatal("Run accepted a corrupt stream")
	}
}

// TestTailerFatalOnApplyError: an applier failure (divergence detected by the
// server layer) stops the run with the applier's error in the chain.
func TestTailerFatalOnApplyError(t *testing.T) {
	raw, _ := buildJournal(t, 4)
	srv := httptest.NewServer(&journalServer{raw: raw})
	defer srv.Close()

	boom := errors.New("replica gone rogue")
	tl := tailerFor(srv.URL, &memApplier{fail: boom})
	err := runTailer(t, tl)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want wrapped %v", err, boom)
	}
}

// TestTailerStopInterruptsBackoff: Stop must end Run promptly even while the
// tailer sleeps a long backoff.
func TestTailerStopInterruptsBackoff(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	base := srv.URL
	srv.Close()

	tl := NewTailer(base, &memApplier{})
	tl.BaseDelay = time.Hour
	tl.MaxDelay = time.Hour
	done := make(chan error, 1)
	go func() { done <- tl.Run(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let it enter the backoff sleep
	tl.Stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after Stop: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not interrupt the backoff sleep")
	}
	tl.Stop() // idempotent
}

// TestTailerSetLeaderRetargets: retargeting mid-run moves the stream to the
// new leader and resumes at the applied offset.
func TestTailerSetLeaderRetargets(t *testing.T) {
	raw, want := buildJournal(t, 8)
	half := persist.ScanBytes(raw[:len(raw)/2]).CleanLen
	old := httptest.NewServer(&journalServer{raw: raw[:half]}) // stalls at half
	defer old.Close()
	next := &journalServer{raw: raw}
	nextSrv := httptest.NewServer(next)
	defer nextSrv.Close()

	apply := &memApplier{}
	tl := tailerFor(old.URL, apply)
	tl.StopOnEOF = func() bool { return apply.Offset() == int64(len(raw)) }
	done := make(chan error, 1)
	go func() { done <- tl.Run(context.Background()) }()

	deadline := time.Now().Add(5 * time.Second)
	for apply.Offset() < half && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if apply.Offset() != half {
		t.Fatalf("stalled at %d, want %d before retarget", apply.Offset(), half)
	}
	tl.SetLeader(nextSrv.URL)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tailer did not finish after retarget")
	}
	if got := len(apply.records()); got != len(want) {
		t.Fatalf("applied %d records, want %d", got, len(want))
	}
	if offs := next.offsets(); len(offs) == 0 || offs[0] != half {
		t.Fatalf("new leader first offset %v, want resume at %d", offs, half)
	}
	if tl.Leader() != strings.TrimRight(nextSrv.URL, "/") {
		t.Fatalf("Leader() = %q after retarget", tl.Leader())
	}
}

// TestTailerZeroByteLeaderBacksOff is the regression test for the backoff
// contract: a leader that *accepts* connections but streams zero bytes (a
// half-dead process, a black-holing proxy) must not collapse the reconnect
// backoff into a hot loop. Only record-boundary progress resets the ladder,
// so attempt counts over a window stay within the exponential envelope.
func TestTailerZeroByteLeaderBacksOff(t *testing.T) {
	var connects atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		connects.Add(1)
		w.Header().Set(SizeHeader, "4096") // advertises bytes it never ships
		w.WriteHeader(http.StatusOK)
		// Return immediately: a zero-byte 200 followed by EOF.
	}))
	defer srv.Close()

	tl := NewTailer(srv.URL, &memApplier{})
	tl.BaseDelay = 10 * time.Millisecond
	tl.MaxDelay = 500 * time.Millisecond
	done := make(chan error, 1)
	go func() { done <- tl.Run(context.Background()) }()
	window := 400 * time.Millisecond
	time.Sleep(window)
	tl.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := connects.Load()
	if got < 2 {
		t.Fatalf("tailer gave up after %d attempts; it should keep retrying", got)
	}
	// With the ladder growing 10ms→20→40→80→160→320ms, a 400ms window fits
	// roughly 6 attempts (jitter halves some delays). A hot loop would make
	// hundreds; anything near the exponential envelope passes.
	if got > 15 {
		t.Fatalf("%d connect attempts in %v: zero-byte streams collapsed the backoff", got, window)
	}
	if tl.Status().LastRecordUnixNano != 0 {
		t.Fatalf("zero-byte stream counted as record progress: %+v", tl.Status())
	}
}

// TestBackoff pins the envelope: exponential growth from base, full jitter in
// [d/2, d], the max clamp, and the floor.
func TestBackoff(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for attempt := 0; attempt < 12; attempt++ {
		want := base << uint(attempt)
		if want > max || want <= 0 {
			want = max
		}
		for i := 0; i < 50; i++ {
			d := Backoff(base, max, attempt, 0)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
	if d := Backoff(base, max, 0, 10*time.Second); d != 10*time.Second {
		t.Fatalf("floor ignored: %v", d)
	}
}
