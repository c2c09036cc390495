package server

import (
	"bufio"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The stop path: SubmitLocal is the one admission gate, and it answers a
// keyed retry of an acked submission before it refuses new work for a
// drain; DrainShards paces the drain's rounds to the event stream's readers.

// retryDuringDrain is a keyed submission acked before the drain: a client
// that lost the ack retries it while the daemon drains.
var retryDuringDrain = JobRequest{Kind: "serial", Quanta: 2, Count: 2, Key: "acked"}

func TestKeyedRetryDuringDrainSubmitLocal(t *testing.T) {
	s := manualDaemon(t, Config{P: 8, L: 50, Clock: ClockVirtual, JournalDir: t.TempDir()})
	req := retryDuringDrain
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	first, _, err := s.SubmitLocal(req, "")
	if err != nil {
		t.Fatal(err)
	}
	s.Drain()
	ack, code, err := s.SubmitLocal(req, "")
	if code != http.StatusOK || ack.State != "duplicate" || !reflect.DeepEqual(ack.IDs, first.IDs) {
		t.Fatalf("retry while draining: %d %+v (%v), want 200 duplicate of %v", code, ack, err, first.IDs)
	}
	for _, key := range []string{"", "new"} {
		fresh := JobRequest{Kind: "serial", Key: key}
		if err := fresh.Normalize(); err != nil {
			t.Fatal(err)
		}
		if _, code, err := s.SubmitLocal(fresh, ""); code != http.StatusServiceUnavailable {
			t.Fatalf("submission with key %q while draining: %d (%v), want 503", key, code, err)
		}
	}
}

func TestKeyedRetryDuringDrainHTTP(t *testing.T) {
	s, base := startServer(t, Config{P: 8, L: 50, Clock: ClockWall, Tick: time.Hour})
	code, first, bad := postJobs(t, base, retryDuringDrain)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%q)", code, bad.Error)
	}
	s.Drain()
	code, ack, bad := postJobs(t, base, retryDuringDrain)
	if code != http.StatusOK || ack.State != "duplicate" || !reflect.DeepEqual(ack.IDs, first.IDs) {
		t.Fatalf("retry while draining: %d %+v (%q), want 200 duplicate of %v", code, ack, bad.Error, first.IDs)
	}
	for _, key := range []string{"", "new"} {
		if code, _, bad := postJobs(t, base, JobRequest{Kind: "serial", Key: key}); code != http.StatusServiceUnavailable {
			t.Fatalf("submission with key %q while draining: %d (%q), want 503", key, code, bad.Error)
		}
	}
}

// drainBacklog queues 25 jobs on a daemon whose wall clock ticks hourly, so
// the drain runs every quantum of them back to back: about 4000 frames,
// four times a subscriber's 1024-frame queue.
func drainBacklog(t *testing.T, base string) {
	t.Helper()
	for i := 0; i < 25; i++ {
		if code, _, bad := postJobs(t, base, JobRequest{Kind: "fullPar", Width: 12, Quanta: 4}); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d (%q)", i, code, bad.Error)
		}
	}
}

// countFrames reads base's event stream until it ends, at the end of the
// drain, and sends the number of frames it carried.
func countFrames(t *testing.T, base string) <-chan int {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	out := make(chan int, 1)
	go func() {
		defer resp.Body.Close()
		n := 0
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			if strings.HasPrefix(sc.Text(), "data: ") {
				n++
			}
		}
		out <- n
	}()
	return out
}

// TestDrainKeepsPaceWithReader: on one CPU the stream's writer runs only
// when the drain goroutine lets it, so a drain that does not wait for it
// delivers the first 1025 of about 4000 frames. Paced, a reader that keeps
// reading gets every frame.
func TestDrainKeepsPaceWithReader(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, base := startServer(t, Config{P: 16, L: 50, Clock: ClockWall, Tick: time.Hour})
	frames := countFrames(t, base)
	drainBacklog(t, base)
	s.Drain()
	<-s.drained
	n := <-frames
	if st := s.Snapshot(); st.SSEDropped != 0 || uint64(n) != st.LastEventID || n < 3000 {
		t.Fatalf("reader got %d of %d frames, %d dropped; want all of them, at least 3000",
			n, st.LastEventID, st.SSEDropped)
	}
}

// TestDrainDoesNotWaitForStalledReader: a subscriber that keeps reading,
// however slowly, gets every frame of the drain, while one that stopped
// reading is given up once its queue has not moved for paceStall, so it
// holds the drain for less than paceMax; its overflow is dropped and
// counted.
func TestDrainDoesNotWaitForStalledReader(t *testing.T) {
	s, base := startServer(t, Config{P: 16, L: 50, Clock: ClockWall, Tick: time.Hour})
	_, _, _, unsubscribe := s.hub.subscribe(1024, []uint64{0}) // never read
	defer unsubscribe()
	_, slow, _, stopSlow := s.hub.subscribe(1024, []uint64{0})
	defer stopSlow()
	got := make(chan uint64, 1)
	go func() {
		var n uint64
		for range slow { // closes with the hub, at the end of the drain
			if n++; n%64 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		got <- n
	}()
	drainBacklog(t, base)
	start := time.Now()
	s.Drain()
	<-s.drained
	if d := time.Since(start); d < paceStall || d >= paceMax {
		t.Fatalf("drain took %v with a stalled reader, want between %v and %v", d, paceStall, paceMax)
	}
	st := s.Snapshot()
	if n := <-got; n != st.LastEventID || st.SSEDropped == 0 {
		t.Fatalf("slow reader got %d of %d frames, and %d were dropped; want all of them, and drops for the stalled reader",
			n, st.LastEventID, st.SSEDropped)
	}
}
